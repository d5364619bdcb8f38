// Package history implements the Performance History Repository of the
// paper's Fig. 1: the Planner-side store of measured job runtimes that the
// Predictor mines to estimate future performance.
//
// Records are keyed by (operation, resource) rather than by job: the paper
// observes that a scientific workflow contains hundreds of jobs but only a
// handful of unique operations, so every execution of an operation on a
// resource sharpens the estimate for all other jobs running the same
// program there. The repository keeps streaming statistics (count, mean,
// EWMA, min/max) per key — enough for the history-based predictors without
// unbounded memory growth.
//
// A Repository is safe for concurrent use: in the aheftd daemon one
// repository is shared by every live workflow of a tenant on a shard —
// Record/Variance from the report path, Lookup/LookupOp from the
// history-based predictor inside reschedules — while /metrics readers
// aggregate Len/Totals from other goroutines. A -race hammer test pins
// the contract down.
package history

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"aheft/internal/grid"
)

// Key identifies one (operation, resource) statistics cell.
type Key struct {
	Op       string
	Resource grid.ID
}

// Stats summarises the executions recorded under one key.
type Stats struct {
	Count int
	Mean  float64
	// EWMA is an exponentially weighted moving average (α = 0.3 by
	// default) emphasising recent behaviour — the signal the Performance
	// Monitor's variance events are judged against.
	EWMA float64
	Min  float64
	Max  float64
	// Last is the most recent observation.
	Last float64
}

// DefaultAlpha is the EWMA smoothing factor.
const DefaultAlpha = 0.3

// Repository is a thread-safe performance history store. The zero value
// is not usable; call New.
type Repository struct {
	mu    sync.RWMutex
	alpha float64
	cells map[Key]*Stats
	// ops indexes the same cells by operation, with the aggregate LookupOp
	// answers kept current by every mutation.
	ops map[string]*opAgg
	// gen counts mutations (Record, Import). Estimators backed by the
	// repository expose it as their EstimateVersion, letting the kernel
	// detect "estimates drifted" without comparing cell contents. Advanced
	// under mu; atomic so Generation — read once per estimate — takes no
	// lock.
	gen atomic.Uint64
}

// opAgg is one operation's cells in ascending resource order and their
// observation-weighted mean, summed in that order: float addition is not
// associative, and a map-order sum differs in the last ULP across runs.
// The estimate feeds placement and adoption decisions, so that ULP would
// flip near-threshold tie-breaks and make an otherwise deterministic
// daemon fail record/replay verification.
type opAgg struct {
	cells []opCell
	mean  float64
	count int
}

type opCell struct {
	r grid.ID
	s *Stats
}

func (a *opAgg) resum() {
	sum := 0.0
	a.count = 0
	for _, c := range a.cells {
		sum += c.s.Mean * float64(c.s.Count)
		a.count += c.s.Count
	}
	a.mean = sum / float64(a.count)
}

// put installs s as the cell of k, replacing any earlier one, and brings
// the operation's aggregate up to date. Caller holds mu.
func (h *Repository) put(k Key, s *Stats) {
	a := h.ops[k.Op]
	if a == nil {
		a = &opAgg{}
		h.ops[k.Op] = a
	}
	i, found := slices.BinarySearchFunc(a.cells, k.Resource, func(c opCell, r grid.ID) int { return cmp.Compare(c.r, r) })
	if found {
		a.cells[i].s = s
	} else {
		a.cells = slices.Insert(a.cells, i, opCell{r: k.Resource, s: s})
	}
	h.cells[k] = s
	a.resum()
}

// New returns an empty repository with the given EWMA smoothing factor;
// alpha <= 0 selects DefaultAlpha.
func New(alpha float64) *Repository {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &Repository{alpha: alpha, cells: make(map[Key]*Stats), ops: make(map[string]*opAgg)}
}

// Record stores one measured execution: operation op ran on resource r for
// duration d. Non-positive durations are rejected.
func (h *Repository) Record(op string, r grid.ID, d float64) error {
	if d <= 0 {
		return fmt.Errorf("history: non-positive duration %g for op %q on r%d", d, op, r)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gen.Add(1)
	k := Key{Op: op, Resource: r}
	s, ok := h.cells[k]
	if !ok {
		h.put(k, &Stats{Count: 1, Mean: d, EWMA: d, Min: d, Max: d, Last: d})
		return nil
	}
	s.Count++
	s.Mean += (d - s.Mean) / float64(s.Count)
	s.EWMA = h.alpha*d + (1-h.alpha)*s.EWMA
	if d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	s.Last = d
	h.ops[op].resum()
	return nil
}

// Lookup returns the statistics for (op, r), if any executions were
// recorded.
func (h *Repository) Lookup(op string, r grid.ID) (Stats, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if s, ok := h.cells[Key{Op: op, Resource: r}]; ok {
		return *s, true
	}
	return Stats{}, false
}

// LookupOp returns the aggregate mean duration of op over every resource
// it ran on — the fallback estimate for a resource with no local history
// (e.g. one that just joined the grid).
func (h *Repository) LookupOp(op string) (mean float64, count int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if a := h.ops[op]; a != nil {
		return a.mean, a.count
	}
	return 0, 0
}

// Variance reports the relative deviation of a new observation from the
// recorded EWMA for (op, r): |d − EWMA| / EWMA. The Performance Monitor
// fires a significant-variance event when this exceeds its threshold. The
// second result is false when no history exists yet.
func (h *Repository) Variance(op string, r grid.ID, d float64) (float64, bool) {
	s, ok := h.Lookup(op, r)
	if !ok || s.EWMA <= 0 {
		return 0, false
	}
	rel := (d - s.EWMA) / s.EWMA
	if rel < 0 {
		rel = -rel
	}
	return rel, true
}

// Len returns the number of (op, resource) cells.
func (h *Repository) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.cells)
}

// Totals returns the cell count and the total number of recorded
// observations — the repository-size gauges the daemon's /metrics
// reports.
func (h *Repository) Totals() (cells, observations int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, s := range h.cells {
		observations += s.Count
	}
	return len(h.cells), observations
}

// Cell is the serialisable form of one statistics cell, used by the
// daemon's durability layer to persist a tenant's repository.
type Cell struct {
	Op       string  `json:"op"`
	Resource grid.ID `json:"resource"`
	Count    int     `json:"count"`
	Mean     float64 `json:"mean"`
	EWMA     float64 `json:"ewma"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Last     float64 `json:"last"`
}

// Export snapshots every cell in deterministic (op, then resource)
// order. Import of the result into a fresh repository reproduces the
// statistics bit for bit.
func (h *Repository) Export() []Cell {
	keys := h.Keys()
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]Cell, 0, len(keys))
	for _, k := range keys {
		s := h.cells[k]
		if s == nil {
			continue
		}
		out = append(out, Cell{
			Op: k.Op, Resource: k.Resource,
			Count: s.Count, Mean: s.Mean, EWMA: s.EWMA, Min: s.Min, Max: s.Max, Last: s.Last,
		})
	}
	return out
}

// Import installs the exported cells, overwriting any existing cell
// with the same key. Cells without observations are ignored.
func (h *Repository) Import(cells []Cell) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gen.Add(1)
	for _, c := range cells {
		if c.Count <= 0 {
			continue
		}
		h.put(Key{Op: c.Op, Resource: c.Resource}, &Stats{
			Count: c.Count, Mean: c.Mean, EWMA: c.EWMA, Min: c.Min, Max: c.Max, Last: c.Last,
		})
	}
}

// Alpha returns the repository's EWMA smoothing factor.
func (h *Repository) Alpha() float64 { return h.alpha }

// Generation returns the mutation counter: it advances on every Record
// and Import, so two equal Generation reads bracket a window in which
// every history-derived estimate was stable.
func (h *Repository) Generation() uint64 { return h.gen.Load() }

// Keys returns all cells in deterministic order (op, then resource).
func (h *Repository) Keys() []Key {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]Key, 0, len(h.cells))
	for k := range h.cells {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}
