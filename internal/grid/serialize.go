package grid

import (
	"encoding/json"
	"fmt"

	"aheft/internal/jsonscan"
)

// arrivalJSON is the wire form of one pool arrival, as MarshalJSON writes
// it (DecodePool reads the same fields without it). Resource IDs are not
// carried explicitly: arrivals are listed in ID order and decoding assigns
// dense IDs 0..n-1 by position, so a document can never describe the
// non-dense or duplicate IDs NewPool rejects. Data-plane fields are
// omitempty so pools that never declare them encode exactly as before the
// data-aware extension.
type arrivalJSON struct {
	Time  float64 `json:"t"`
	Name  string  `json:"name"`
	Up    float64 `json:"up,omitempty"`
	Down  float64 `json:"down,omitempty"`
	Link  string  `json:"link,omitempty"`
	Store float64 `json:"store,omitempty"`
}

// poolJSON is the extended wire form used only when the pool declares
// named shared links: the legacy bare-array form has nowhere to carry the
// link table, so such pools encode as an object instead.
type poolJSON struct {
	Links     map[string]float64 `json:"links"`
	Resources []arrivalJSON      `json:"resources"`
}

func (p *Pool) arrivalsByID() []arrivalJSON {
	byID := make([]arrivalJSON, len(p.arrivals))
	for _, a := range p.arrivals {
		r := a.Resource
		byID[r.ID] = arrivalJSON{
			Time: a.Time, Name: r.Name,
			Up: r.Up, Down: r.Down, Link: r.Link, Store: r.Store,
		}
	}
	return byID
}

// MarshalJSON encodes the pool as the list of its arrivals in resource-ID
// order (not arrival-time order): position in the list is the resource ID,
// which keeps cost-table columns aligned across a round trip. Pools with
// named shared links encode as {"links":{...},"resources":[...]} instead —
// link-free pools keep the legacy bare-array bytes.
func (p *Pool) MarshalJSON() ([]byte, error) {
	if len(p.links) == 0 {
		return json.Marshal(p.arrivalsByID())
	}
	return json.Marshal(poolJSON{Links: p.Links(), Resources: p.arrivalsByID()})
}

// UnmarshalJSON decodes a pool written by MarshalJSON, accepting both the
// bare-array and the links-object form. The result is validated by
// NewPoolLinks (non-negative times, at least one time-0 resource, sane
// bandwidths, resolvable link references); on error the receiver is left
// untouched.
func (p *Pool) UnmarshalJSON(data []byte) error {
	s := jsonscan.New(data)
	np, err := DecodePool(s)
	if err != nil {
		return err
	}
	if err := s.End(); err != nil {
		return fmt.Errorf("grid: decode: %w", err)
	}
	*p = *np
	return nil
}

// DecodePool reads one pool document from s — the one decoder of the
// format, standalone or embedded in a submission or grid spec — in either
// form, and builds the pool through NewPoolLinks.
func DecodePool(s *jsonscan.Scanner) (*Pool, error) {
	var arr []Arrival
	var links map[string]float64
	arrivals := func() {
		arr = jsonscan.Array(s, arr, func(a *Arrival) {
			r := &a.Resource
			s.Object("t", &a.Time, "name", &r.Name, "up", &r.Up, "down", &r.Down, "link", &r.Link, "store", &r.Store)
		})
	}
	if s.Peek() != '{' {
		arrivals()
	} else {
		s.Object("resources", arrivals, "links", func() {
			// As json.Unmarshal into a map: a repeated "links" merges, a
			// repeated name takes its last value, a null value reads as zero.
			if s.Null() {
				links = nil
				return
			}
			if links == nil {
				links = make(map[string]float64)
			}
			s.Members(func(name []byte) {
				bw := 0.0
				if !s.Null() {
					bw = s.Float()
				}
				links[string(name)] = bw
			})
		})
	}
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("grid: decode: %w", err)
	}
	for i := range arr {
		arr[i].Resource.ID = ID(i)
	}
	np, err := NewPoolLinks(arr, links)
	if err != nil {
		return nil, fmt.Errorf("grid: decode: %w", err)
	}
	return np, nil
}
