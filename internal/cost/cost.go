// Package cost models the computation and communication costs that drive
// every scheduling decision: the matrix w[i][j] of job-on-resource
// execution times and the edge communication costs c(i,j).
//
// In the paper the Planner obtains these through its Predictor component
// ("call P = estimate(T, R)", Fig. 2 line 5). The Estimator interface is
// that P; the Table type is the ground-truth realisation the simulator
// executes against. Under the paper's experiment assumption (1) — accurate
// estimation — the two coincide, which Exact provides. Package predict
// offers history-based and noisy estimators for the architecture and for
// robustness ablations.
package cost

import (
	"fmt"
	"math"

	"aheft/internal/dag"
	"aheft/internal/grid"
)

// Estimator supplies the performance estimation matrix P used by the
// schedulers: the computation cost of a job on a resource. The classic
// communication cost of an edge is not estimated: it is the edge's data
// weight, stated once in Comm.
type Estimator interface {
	// Comp returns the estimated execution time w[job][res] of the job on
	// the resource.
	Comp(job dag.JobID, res grid.ID) float64
}

// Comm returns the classic time to move the (from → to) edge's data when
// from runs on rFrom and to runs on rTo: zero when co-located (the jobs
// share a filesystem), the edge's data weight otherwise — the paper's
// Fig. 4 sample and §4.1 file-transfer assumption. The kernel's placement
// relies on this form: a producer's output is on its own resource at its
// finish and on every other one e.Data later.
func Comm(e dag.Edge, rFrom, rTo grid.ID) float64 {
	if rFrom == rTo {
		return 0
	}
	return e.Data
}

// Table is the ground-truth cost model for one scenario: a dense
// jobs × resources computation matrix over every resource that will ever
// join the pool. Its communication cost is Comm.
type Table struct {
	comp [][]float64 // comp[job][resource]
}

// NewTable builds a Table from a jobs × resources matrix. Every row must
// have the same width and every entry must be positive and finite.
func NewTable(comp [][]float64) (*Table, error) {
	if err := checkMatrix(comp); err != nil {
		return nil, err
	}
	rows := make([][]float64, len(comp))
	for i, row := range comp {
		rows[i] = append([]float64(nil), row...)
	}
	return &Table{comp: rows}, nil
}

// checkMatrix is NewTable's validation: at least one row and one column,
// every row as wide as the first, every entry positive and finite.
func checkMatrix(comp [][]float64) error {
	if len(comp) == 0 {
		return fmt.Errorf("cost: empty computation matrix")
	}
	width := len(comp[0])
	if width == 0 {
		return fmt.Errorf("cost: computation matrix has zero resources")
	}
	for i, row := range comp {
		if len(row) != width {
			return fmt.Errorf("cost: ragged matrix: row %d has %d entries, want %d", i, len(row), width)
		}
		for j, w := range row {
			if !(w > 0) || math.IsInf(w, 0) {
				return fmt.Errorf("cost: invalid cost w[%d][%d] = %g", i, j, w)
			}
		}
	}
	return nil
}

// MustTable is NewTable that panics on error.
func MustTable(comp [][]float64) *Table {
	t, err := NewTable(comp)
	if err != nil {
		panic(err)
	}
	return t
}

// Jobs returns the number of jobs the table covers.
func (t *Table) Jobs() int { return len(t.comp) }

// Resources returns the number of resources the table covers.
func (t *Table) Resources() int { return len(t.comp[0]) }

// Comp returns the true execution time of job on res.
func (t *Table) Comp(job dag.JobID, res grid.ID) float64 {
	return t.comp[job][res]
}

// Comm is the package-level Comm, for the schedule validator's CommCoster.
func (t *Table) Comm(e dag.Edge, rFrom, rTo grid.ID) float64 { return Comm(e, rFrom, rTo) }

// MeanComp returns the job's computation cost averaged over the given
// resource set — the w̄_i used by HEFT's upward ranks. It panics on an
// empty resource set.
func MeanComp(est Estimator, job dag.JobID, rs []grid.Resource) float64 {
	if len(rs) == 0 {
		panic("cost: MeanComp over empty resource set")
	}
	sum := 0.0
	for _, r := range rs {
		sum += est.Comp(job, r.ID)
	}
	return sum / float64(len(rs))
}

// MeanComm returns the average of Comm over distinct placements — the
// edge data weight, which is the c̄(i,j) HEFT's ranks use.
func MeanComm(e dag.Edge) float64 { return e.Data }

// Exact adapts a *Table into the Estimator the planner consumes; it is the
// paper's "accurate estimation" assumption made explicit in the types.
func Exact(t *Table) Estimator { return t }

// EstimateVersion implements kernel.VersionedEstimator: a Table is
// immutable after construction, so its estimates never drift.
func (t *Table) EstimateVersion() uint64 { return 0 }

var _ Estimator = (*Table)(nil)

// CCR computes the communication-to-computation ratio of a workflow under
// this table: total edge data divided by total average computation cost.
// Workload generators target a requested CCR; this measures the realised
// one.
func CCR(g *dag.Graph, est Estimator, rs []grid.Resource) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	comm := 0.0
	nEdges := 0
	for _, j := range g.Jobs() {
		for _, e := range g.Succs(j.ID) {
			comm += MeanComm(e)
			nEdges++
		}
	}
	comp := 0.0
	for _, j := range g.Jobs() {
		comp += MeanComp(est, j.ID, rs)
	}
	if comp == 0 {
		return math.Inf(1)
	}
	return (comm / float64(nEdges)) / (comp / float64(len(g.Jobs())))
}
