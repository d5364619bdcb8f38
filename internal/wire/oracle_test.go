package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
)

// This file is the reference the one-pass decoders are held to: the
// reflective, json.Unmarshal-based decoders of the graph, cost-matrix,
// pool, grid-spec and submission documents exactly as they stood before
// internal/jsonscan replaced them — nested json.Unmarshalers over tagged
// structs, the model objects built through their packages' exported
// constructors. The parity fuzz tests (parity_test.go) require the
// production decoders to accept and reject the same inputs and to build
// the same values.

type oracleGraphDoc struct {
	V    int    `json:"v,omitempty"`
	Name string `json:"name"`
	Jobs []struct {
		Name string `json:"name"`
		Op   string `json:"op,omitempty"`
	} `json:"jobs"`
	Edges []struct {
		From string  `json:"from"`
		To   string  `json:"to"`
		Data float64 `json:"data"`
		File string  `json:"file,omitempty"`
	} `json:"edges"`
}

func oracleGraph(doc []byte) (*dag.Graph, error) {
	var d oracleGraphDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("dag: decode: %w", err)
	}
	if d.V < 0 || d.V > dag.WireVersion {
		return nil, fmt.Errorf("dag: decode: unsupported wire version %d (max %d)", d.V, dag.WireVersion)
	}
	g := dag.New(d.Name)
	for _, j := range d.Jobs {
		if g.JobByName(j.Name) != dag.NoJob {
			return nil, fmt.Errorf("dag: decode: duplicate job %q", j.Name)
		}
		g.AddJob(j.Name, j.Op)
	}
	for _, e := range d.Edges {
		from, to := g.JobByName(e.From), g.JobByName(e.To)
		if from == dag.NoJob || to == dag.NoJob {
			return nil, fmt.Errorf("dag: decode: edge (%s,%s) references unknown job", e.From, e.To)
		}
		if err := g.AddFileEdge(from, to, e.Data, e.File); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func oracleTable(doc []byte) (*cost.Table, error) {
	var comp [][]float64
	if err := json.Unmarshal(doc, &comp); err != nil {
		return nil, fmt.Errorf("cost: decode: %w", err)
	}
	return cost.NewTable(comp)
}

type oracleArrival struct {
	Time  float64 `json:"t"`
	Name  string  `json:"name"`
	Up    float64 `json:"up,omitempty"`
	Down  float64 `json:"down,omitempty"`
	Link  string  `json:"link,omitempty"`
	Store float64 `json:"store,omitempty"`
}

func oraclePool(doc []byte) (*grid.Pool, error) {
	var arrivals []oracleArrival
	var links map[string]float64
	if trimmed := bytes.TrimLeft(doc, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		var obj struct {
			Links     map[string]float64 `json:"links"`
			Resources []oracleArrival    `json:"resources"`
		}
		if err := json.Unmarshal(doc, &obj); err != nil {
			return nil, fmt.Errorf("grid: decode: %w", err)
		}
		arrivals, links = obj.Resources, obj.Links
	} else if err := json.Unmarshal(doc, &arrivals); err != nil {
		return nil, fmt.Errorf("grid: decode: %w", err)
	}
	arr := make([]grid.Arrival, len(arrivals))
	for i, a := range arrivals {
		arr[i] = grid.Arrival{Time: a.Time, Resource: grid.Resource{
			ID: grid.ID(i), Name: a.Name,
			Up: a.Up, Down: a.Down, Link: a.Link, Store: a.Store,
		}}
	}
	return grid.NewPoolLinks(arr, links)
}

// oracleGraphField, oracleTableField and oraclePoolField stand where
// *dag.Graph, *cost.Table and *grid.Pool stood in the envelope structs:
// pointer fields whose type is a json.Unmarshaler.
type (
	oracleGraphField struct{ g *dag.Graph }
	oracleTableField struct{ t *cost.Table }
	oraclePoolField  struct{ p *grid.Pool }
)

func (f *oracleGraphField) UnmarshalJSON(doc []byte) (err error) {
	g, err := oracleGraph(doc)
	if err == nil {
		f.g = g
	}
	return err
}

func (f *oracleTableField) UnmarshalJSON(doc []byte) error {
	t, err := oracleTable(doc)
	if err == nil {
		f.t = t
	}
	return err
}

func (f *oraclePoolField) UnmarshalJSON(doc []byte) error {
	p, err := oraclePool(doc)
	if err == nil {
		f.p = p
	}
	return err
}

func oracleDecodeSubmission(doc []byte, lim Limits) (*Submission, error) {
	var w struct {
		V       int               `json:"v"`
		Name    string            `json:"name,omitempty"`
		Mode    string            `json:"mode,omitempty"`
		Tenant  string            `json:"tenant,omitempty"`
		Policy  string            `json:"policy,omitempty"`
		Options Options           `json:"options,omitempty"`
		Graph   *oracleGraphField `json:"graph"`
		Comp    *oracleTableField `json:"comp"`
		Files   *data.Set         `json:"files,omitempty"`
		Pool    json.RawMessage   `json:"pool"`
	}
	if err := json.Unmarshal(doc, &w); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	s := &Submission{
		V: w.V, Name: w.Name, Mode: w.Mode, Tenant: w.Tenant,
		Policy: w.Policy, Options: w.Options, Files: w.Files,
	}
	if w.Graph != nil {
		s.Graph = w.Graph.g
	}
	if w.Comp != nil {
		s.Comp = w.Comp.t
	}
	switch {
	case len(w.Pool) == 0 || string(w.Pool) == "null":
	case w.Pool[0] == '"':
		var ref string
		if err := json.Unmarshal(w.Pool, &ref); err != nil {
			return nil, fmt.Errorf("wire: decode pool reference: %w", err)
		}
		name, ok := strings.CutPrefix(ref, SharedPoolPrefix)
		if !ok {
			return nil, fmt.Errorf("wire: pool reference %q must start with %q", ref, SharedPoolPrefix)
		}
		s.SharedGrid = name
	default:
		p, err := oraclePool(w.Pool)
		if err != nil {
			return nil, err
		}
		s.Pool = p
	}
	if err := s.Validate(lim); err != nil {
		return nil, err
	}
	return s, nil
}

func oracleDecodeGridSpec(doc []byte, lim Limits) (*GridSpec, error) {
	var w struct {
		V    int              `json:"v"`
		Pool *oraclePoolField `json:"pool"`
	}
	if err := json.Unmarshal(doc, &w); err != nil {
		return nil, fmt.Errorf("wire: decode grid spec: %w", err)
	}
	g := &GridSpec{V: w.V}
	if w.Pool != nil {
		g.Pool = w.Pool.p
	}
	if err := g.Validate(lim); err != nil {
		return nil, err
	}
	return g, nil
}

// oracleDecodeReport is DecodeReport as it stood on json.Unmarshal.
func oracleDecodeReport(data []byte, maxEvents int) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("wire: decode report: %w", err)
	}
	if err := r.Validate(maxEvents); err != nil {
		return nil, err
	}
	return &r, nil
}

// oracleDecodeWALRecord is DecodeWALRecord as it stood on json.Unmarshal:
// the envelope walked by reflection, Data a copy of the payload.
func oracleDecodeWALRecord(data []byte) (*WALRecord, error) {
	var r WALRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("wire: decode WAL record: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
