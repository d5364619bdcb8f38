// Package grid models the dynamic pool of computation resources a grid
// workflow executes on.
//
// The AHEFT paper's central premise is that the resource pool is *not*
// fixed: resources join (and, in principle, leave) while a workflow runs.
// Its experiments model this with three parameters (Table 2): the initial
// pool size R, the change interval Δ, and the change percentage δ — every Δ
// time units, δ·R new resources join the grid. This package provides the
// resource and pool types plus the arrival-trace machinery implementing
// that model; cost sampling for the arrivals lives in package workload,
// which owns the β-heterogeneity model.
package grid

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ID identifies a resource. Like dag.JobID, IDs are dense across the set of
// resources that will *ever* exist in a scenario (initial pool plus all
// arrivals), so cost tables can be flat matrices.
type ID int

// NoResource is the sentinel for a failed resource lookup.
const NoResource ID = -1

// Resource is a computation unit (one host/cluster slot in the paper's
// model; each resource executes one job at a time). Beyond its compute
// slot a resource may declare data-plane capacity: per-resource uplink
// and downlink bandwidth, membership in a named shared link, and attached
// storage. All data-plane fields are optional — zero means "unmodelled"
// (infinite capacity), which keeps every pre-existing scenario
// bit-identical.
type Resource struct {
	ID   ID
	Name string

	// Up and Down are the resource's uplink/downlink bandwidths in data
	// units per time unit (MB/s in the paper's workloads). Zero means
	// unconstrained: transfers touching this side of the resource are
	// bounded only by the other constraints on the path.
	Up, Down float64
	// Link optionally names a shared link (declared on the Pool) this
	// resource sits behind; every transfer in or out of the resource also
	// occupies that link's capacity, so resources behind one link contend
	// with each other for it.
	Link string
	// Store is the attached storage capacity in data units; zero means
	// unbounded. The planner treats it as a soft bound on how much data it
	// stages onto the resource within one plan.
	Store float64
}

// Arrival records one resource joining the grid at a point in simulated
// time. Arrivals with Time == 0 form the initial pool.
type Arrival struct {
	Time     float64
	Resource Resource
}

// Pool is the time-varying resource set. It is immutable after
// construction: schedulers query the set of resources available at a given
// clock value, and the enactment and the dispatch simulation iterate its
// arrival events.
type Pool struct {
	arrivals []Arrival // sorted by Time, then Resource.ID
	// links maps a shared-link name to its bandwidth (data units per time
	// unit). Resources reference links by name (Resource.Link); nil when
	// the scenario declares no shared links.
	links map[string]float64
}

// NewPool builds a pool from a set of arrivals. Resource IDs must be dense
// (0..n-1) and unique; arrival times must be non-negative.
func NewPool(arrivals []Arrival) (*Pool, error) {
	return NewPoolLinks(arrivals, nil)
}

// NewPoolLinks is NewPool with named shared links: every Resource.Link
// reference must name an entry of links, and every declared bandwidth or
// storage capacity must be non-negative and finite (zero means
// unconstrained).
func NewPoolLinks(arrivals []Arrival, links map[string]float64) (*Pool, error) {
	n := len(arrivals)
	if n == 0 {
		return nil, fmt.Errorf("grid: empty pool")
	}
	for name, bw := range links {
		if name == "" {
			return nil, fmt.Errorf("grid: shared link with empty name")
		}
		if !(bw > 0) || math.IsInf(bw, 0) {
			return nil, fmt.Errorf("grid: shared link %q has invalid bandwidth %g", name, bw)
		}
	}
	seen := make([]bool, n)
	for _, a := range arrivals {
		if a.Time < 0 || math.IsNaN(a.Time) {
			return nil, fmt.Errorf("grid: resource %q has invalid arrival time %g", a.Resource.Name, a.Time)
		}
		id := a.Resource.ID
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("grid: resource %q has non-dense ID %d (pool size %d)", a.Resource.Name, id, n)
		}
		if seen[id] {
			return nil, fmt.Errorf("grid: duplicate resource ID %d", id)
		}
		seen[id] = true
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"uplink", a.Resource.Up}, {"downlink", a.Resource.Down}, {"storage", a.Resource.Store}} {
			if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return nil, fmt.Errorf("grid: resource %q has invalid %s %g", a.Resource.Name, f.name, f.v)
			}
		}
		if a.Resource.Link != "" {
			if _, ok := links[a.Resource.Link]; !ok {
				return nil, fmt.Errorf("grid: resource %q references unknown link %q", a.Resource.Name, a.Resource.Link)
			}
		}
	}
	sorted := make([]Arrival, n)
	copy(sorted, arrivals)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Time != sorted[j].Time {
			return sorted[i].Time < sorted[j].Time
		}
		return sorted[i].Resource.ID < sorted[j].Resource.ID
	})
	if sorted[0].Time != 0 {
		return nil, fmt.Errorf("grid: no resource available at time 0 (first arrival at %g)", sorted[0].Time)
	}
	var lk map[string]float64
	if len(links) > 0 {
		lk = make(map[string]float64, len(links))
		for name, bw := range links {
			lk[name] = bw
		}
	}
	return &Pool{arrivals: sorted, links: lk}, nil
}

// MustPool is NewPool that panics on error, for generator code paths whose
// construction guarantees validity.
func MustPool(arrivals []Arrival) *Pool {
	p, err := NewPool(arrivals)
	if err != nil {
		panic(err)
	}
	return p
}

// MustPoolLinks is NewPoolLinks that panics on error, for generator code
// paths whose construction guarantees validity.
func MustPoolLinks(arrivals []Arrival, links map[string]float64) *Pool {
	p, err := NewPoolLinks(arrivals, links)
	if err != nil {
		panic(err)
	}
	return p
}

// StaticPool builds a pool of n identical-arrival (time 0) resources named
// r1..rn. Convenient for tests and for classic static-HEFT scenarios.
func StaticPool(n int) *Pool {
	arr := make([]Arrival, n)
	for i := 0; i < n; i++ {
		arr[i] = Arrival{Time: 0, Resource: Resource{ID: ID(i), Name: fmt.Sprintf("r%d", i+1)}}
	}
	return MustPool(arr)
}

// Size returns the total number of resources that ever join the pool.
func (p *Pool) Size() int { return len(p.arrivals) }

// Links returns the pool's named shared links as a name → bandwidth
// snapshot (nil when none are declared).
func (p *Pool) Links() map[string]float64 {
	if len(p.links) == 0 {
		return nil
	}
	out := make(map[string]float64, len(p.links))
	for name, bw := range p.links {
		out[name] = bw
	}
	return out
}

// LinkBW returns the bandwidth of the named shared link (0 if unknown).
func (p *Pool) LinkBW(name string) float64 { return p.links[name] }

// WithLinks returns a copy of the pool with the given named-link
// bandwidths merged over the existing ones. Resources keep their Link
// references; new names become available for them to reference (the copy
// is re-validated, so an invalid bandwidth is rejected).
func (p *Pool) WithLinks(links map[string]float64) (*Pool, error) {
	merged := make(map[string]float64, len(p.links)+len(links))
	for name, bw := range p.links {
		merged[name] = bw
	}
	for name, bw := range links {
		merged[name] = bw
	}
	return NewPoolLinks(p.arrivals, merged)
}

// Arrivals returns all arrival events in time order. Shared slice; callers
// must not mutate.
func (p *Pool) Arrivals() []Arrival { return p.arrivals }

// ArrivalTime returns the time at which resource id joins the pool, or
// +Inf if the ID is unknown.
func (p *Pool) ArrivalTime(id ID) float64 {
	for _, a := range p.arrivals {
		if a.Resource.ID == id {
			return a.Time
		}
	}
	return math.Inf(1)
}

// AvailableAt returns the resources whose arrival time is <= t, in ID
// order. This is the resource set R a scheduler sees when planning at
// clock t.
func (p *Pool) AvailableAt(t float64) []Resource {
	return p.AppendAvailableAt(make([]Resource, 0, len(p.arrivals)), t)
}

// AppendAvailableAt appends AvailableAt(t) to dst, for a caller that
// reuses one slice across events.
func (p *Pool) AppendAvailableAt(dst []Resource, t float64) []Resource {
	n := len(dst)
	for _, a := range p.arrivals {
		if a.Time <= t {
			dst = append(dst, a.Resource)
		}
	}
	slices.SortFunc(dst[n:], func(a, b Resource) int { return cmp.Compare(a.ID, b.ID) })
	return dst
}

// Initial returns the resources available at time 0.
func (p *Pool) Initial() []Resource { return p.AvailableAt(0) }

// ChangeTimes returns the distinct times > 0 at which the pool grows —
// exactly the run-time events the AHEFT planner subscribes to.
func (p *Pool) ChangeTimes() []float64 {
	var out []float64
	last := math.Inf(-1)
	for _, a := range p.arrivals {
		if a.Time > 0 && a.Time != last {
			out = append(out, a.Time)
			last = a.Time
		}
	}
	return out
}

// ArrivalsAt returns the resources that join exactly at time t.
func (p *Pool) ArrivalsAt(t float64) []Resource {
	var out []Resource
	for _, a := range p.arrivals {
		if a.Time == t {
			out = append(out, a.Resource)
		}
	}
	return out
}

// Resource returns the resource with the given ID, or false if unknown.
func (p *Pool) Resource(id ID) (Resource, bool) {
	for _, a := range p.arrivals {
		if a.Resource.ID == id {
			return a.Resource, true
		}
	}
	return Resource{}, false
}

// DynamicModel captures the paper's Table 2 resource-change parameters.
type DynamicModel struct {
	// Initial is R, the number of resources available at time 0.
	Initial int
	// Interval is Δ, the time between consecutive pool-change events. A
	// higher value means a less dynamic grid. Zero disables changes.
	Interval float64
	// ChangePct is δ, the fraction of the *initial* pool size added at each
	// change event (the paper measures change "compared with the initial
	// resource pool"). Each event adds max(1, round(δ·R)) resources.
	ChangePct float64
	// Horizon bounds how many change events are generated: events occur at
	// Δ, 2Δ, ... up to and including MaxEvents events. Workflows that
	// outlive the horizon simply see no further arrivals.
	MaxEvents int
}

// PerEvent returns the number of resources added per change event.
func (m DynamicModel) PerEvent() int {
	if m.Interval <= 0 || m.ChangePct <= 0 || m.MaxEvents <= 0 {
		return 0
	}
	k := int(math.Round(m.ChangePct * float64(m.Initial)))
	if k < 1 {
		k = 1
	}
	return k
}

// TotalResources returns the total number of resources the model ever
// creates (initial pool plus all arrivals).
func (m DynamicModel) TotalResources() int {
	n := m.Initial
	if per := m.PerEvent(); per > 0 {
		n += per * m.MaxEvents
	}
	return n
}

// Build materialises the model into a Pool. Resource names encode their
// provenance: r1..rR for the initial pool, then rK+ for arrivals.
func (m DynamicModel) Build() (*Pool, error) {
	if m.Initial <= 0 {
		return nil, fmt.Errorf("grid: DynamicModel.Initial must be positive, got %d", m.Initial)
	}
	total := m.TotalResources()
	arr := make([]Arrival, 0, total)
	id := ID(0)
	for i := 0; i < m.Initial; i++ {
		arr = append(arr, Arrival{Time: 0, Resource: Resource{ID: id, Name: fmt.Sprintf("r%d", id+1)}})
		id++
	}
	per := m.PerEvent()
	for ev := 1; ev <= m.MaxEvents && per > 0; ev++ {
		t := float64(ev) * m.Interval
		for i := 0; i < per; i++ {
			arr = append(arr, Arrival{Time: t, Resource: Resource{ID: id, Name: fmt.Sprintf("r%d+", id+1)}})
			id++
		}
	}
	return NewPool(arr)
}
