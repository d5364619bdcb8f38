// Package predict implements the Predictor of the paper's Fig. 1: the
// component the Scheduler calls to build the performance estimation matrix
// P = estimate(T, R) before every (re)scheduling round.
//
// Three predictors are provided:
//
//   - the exact predictor (the cost table itself, via cost.Exact) realises
//     the paper's experiment assumption of accurate estimation;
//   - HistoryBased consults the Performance History Repository, falling
//     back to the per-operation mean and finally to a supplied prior for
//     resources without history — this is the predictor a deployed system
//     would run, and the one the variance-event pipeline sharpens over
//     time;
//   - Noisy perturbs an underlying estimator multiplicatively, for the
//     robustness ablation of scheduling under inaccurate estimates.
package predict

import (
	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/rng"
)

// HistoryBased estimates computation costs from the Performance History
// Repository. Communication estimates delegate to the Prior estimator
// (transfer costs are derived from data sizes, which the Planner knows).
//
// Like the kernel that calls it, a HistoryBased is not safe for concurrent
// use: Comp fills a private table. The repository underneath is.
type HistoryBased struct {
	// Graph supplies the Op of each job.
	Graph *dag.Graph
	// Repo is the performance history to mine.
	Repo *history.Repository
	// Prior answers estimates when no history exists (e.g. the first
	// round, or a fresh resource). A deployed system would use an
	// analytical model; the simulation uses the ground-truth table, so
	// prediction error comes only from resource variance.
	Prior cost.Estimator
	// UseEWMA selects the recency-weighted average instead of the overall
	// mean.
	UseEWMA bool

	tab compTable
}

// compTable holds Comp's history answers per (operation, resource). A
// workflow has hundreds of jobs but a handful of operations, and a
// placement pass asks for every (job, resource) pair several times, so
// the repository is consulted once per cell and repository generation
// instead of once per question. Cells fill on first touch.
type compTable struct {
	opOf   []int32   // job → index into ops, interned once per graph
	ops    []string  // distinct operations
	gen    uint64    // repository generation the cells were read at
	ewma   bool      // UseEWMA they were read under
	stride int       // resources per operation row
	known  []uint8   // per cell: 0 not asked yet, else cellHistory or cellPrior
	val    []float64 // a cellHistory cell's estimate
}

const (
	cellHistory = 1 + iota // the repository answers, with val
	cellPrior              // it has nothing: the (per-job) prior answers
)

var _ cost.Estimator = (*HistoryBased)(nil)

// Comp estimates the job's runtime on r: per-(op, resource) history first,
// then the operation's cross-resource mean, then the prior.
func (p *HistoryBased) Comp(job dag.JobID, r grid.ID) float64 {
	t := &p.tab
	if gen := p.Repo.Generation(); gen != t.gen || int(r) >= t.stride || p.UseEWMA != t.ewma {
		p.resetTable(gen, r)
	}
	op := t.opOf[job]
	i := int(op)*t.stride + int(r)
	if t.known[i] == 0 {
		t.known[i] = cellPrior
		if s, ok := p.Repo.Lookup(t.ops[op], r); ok {
			t.val[i], t.known[i] = s.Mean, cellHistory
			if p.UseEWMA {
				t.val[i] = s.EWMA
			}
		} else if mean, n := p.Repo.LookupOp(t.ops[op]); n > 0 {
			t.val[i], t.known[i] = mean, cellHistory
		}
	}
	if t.known[i] == cellHistory {
		return t.val[i]
	}
	return p.Prior.Comp(job, r)
}

// resetTable forgets every cell (the repository moved on, or UseEWMA
// flipped) and makes the rows wide enough for resource r.
func (p *HistoryBased) resetTable(gen uint64, r grid.ID) {
	t := &p.tab
	if t.opOf == nil {
		idx := make(map[string]int32)
		t.opOf = make([]int32, p.Graph.Len())
		for j := range t.opOf {
			op := p.Graph.Job(dag.JobID(j)).Op
			o, ok := idx[op]
			if !ok {
				o = int32(len(t.ops))
				idx[op] = o
				t.ops = append(t.ops, op)
			}
			t.opOf[j] = o
		}
	}
	t.gen, t.ewma = gen, p.UseEWMA
	if int(r) >= t.stride {
		t.stride = max(int(r)+1, 2*t.stride)
		t.known = make([]uint8, len(t.ops)*t.stride)
		t.val = make([]float64, len(t.ops)*t.stride)
	}
	clear(t.known)
}

// Comm estimates the transfer cost of edge e between the two placements.
func (p *HistoryBased) Comm(e dag.Edge, rFrom, rTo grid.ID) float64 {
	return p.Prior.Comm(e, rFrom, rTo)
}

// EstimateVersion implements kernel.VersionedEstimator: the predictor's
// answers change exactly when the repository underneath it mutates (Comm
// delegates to the static prior, so only Comp drifts).
func (p *HistoryBased) EstimateVersion() uint64 { return p.Repo.Generation() }

// Noisy wraps an estimator with multiplicative error: every Comp estimate
// is scaled by a factor drawn once per (job, resource) from
// [1−Error, 1+Error]. Draws are memoised so repeated queries are
// consistent within a planning round, as a real (deterministic) predictor
// would be.
type Noisy struct {
	Base  cost.Estimator
	Error float64 // e.g. 0.2 for ±20%
	Rng   *rng.Source

	memo map[noisyKey]float64
}

type noisyKey struct {
	job dag.JobID
	res grid.ID
}

var _ cost.Estimator = (*Noisy)(nil)

// Comp returns the perturbed computation estimate.
func (n *Noisy) Comp(job dag.JobID, r grid.ID) float64 {
	if n.memo == nil {
		n.memo = make(map[noisyKey]float64)
	}
	k := noisyKey{job: job, res: r}
	f, ok := n.memo[k]
	if !ok {
		f = n.Rng.Uniform(1-n.Error, 1+n.Error)
		if f <= 0.01 {
			f = 0.01
		}
		n.memo[k] = f
	}
	return f * n.Base.Comp(job, r)
}

// Comm returns the unperturbed communication estimate (data sizes are
// known to the planner).
func (n *Noisy) Comm(e dag.Edge, rFrom, rTo grid.ID) float64 {
	return n.Base.Comm(e, rFrom, rTo)
}
