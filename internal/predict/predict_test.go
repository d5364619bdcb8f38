package predict

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

func setup(t *testing.T) (*dag.Graph, *cost.Table, *history.Repository) {
	t.Helper()
	g := workload.SampleDAG()
	tb := workload.SampleTable()
	return g, tb, history.New(0)
}

func TestHistoryBasedFallsBackToPrior(t *testing.T) {
	g, tb, repo := setup(t)
	p := &HistoryBased{Graph: g, Repo: repo, Prior: cost.Exact(tb)}
	n1 := g.JobByName("n1")
	if got := p.Comp(n1, 0); got != tb.Comp(n1, 0) {
		t.Fatalf("no history: Comp = %g, want prior %g", got, tb.Comp(n1, 0))
	}
}

func TestHistoryBasedUsesLocalHistory(t *testing.T) {
	g, tb, repo := setup(t)
	n1 := g.JobByName("n1")
	op := g.Job(n1).Op
	_ = repo.Record(op, 0, 99)
	p := &HistoryBased{Graph: g, Repo: repo, Prior: cost.Exact(tb)}
	if got := p.Comp(n1, 0); got != 99 {
		t.Fatalf("Comp = %g, want recorded 99", got)
	}
	// Another resource without history falls back to the op mean.
	if got := p.Comp(n1, 1); got != 99 {
		t.Fatalf("cross-resource fallback = %g, want op mean 99", got)
	}
}

func TestHistoryBasedEWMA(t *testing.T) {
	g, tb, repo := setup(t)
	n1 := g.JobByName("n1")
	op := g.Job(n1).Op
	_ = repo.Record(op, 0, 10)
	_ = repo.Record(op, 0, 20)
	mean := &HistoryBased{Graph: g, Repo: repo, Prior: cost.Exact(tb)}
	recent := &HistoryBased{Graph: g, Repo: repo, Prior: cost.Exact(tb), UseEWMA: true}
	if mean.Comp(n1, 0) != 15 {
		t.Fatalf("mean = %g, want 15", mean.Comp(n1, 0))
	}
	want := history.DefaultAlpha*20 + (1-history.DefaultAlpha)*10
	if recent.Comp(n1, 0) != want {
		t.Fatalf("EWMA = %g, want %g", recent.Comp(n1, 0), want)
	}
}

// uncachedComp is the estimate rule asked of the repository directly, as
// Comp did before it kept a table: local history, then the operation's
// cross-resource mean, then the prior.
func uncachedComp(p *HistoryBased, job dag.JobID, r grid.ID) float64 {
	op := p.Graph.Job(job).Op
	if s, ok := p.Repo.Lookup(op, r); ok {
		if p.UseEWMA {
			return s.EWMA
		}
		return s.Mean
	}
	if mean, n := p.Repo.LookupOp(op); n > 0 {
		return mean
	}
	return p.Prior.Comp(job, r)
}

// TestHistoryBasedTableMatchesUncached: over random interleavings of
// Record, Import, questions about resources beyond the table's current
// width (a resource joining) and UseEWMA flipped on a live predictor, the
// table answers exactly what the repository would — for a predictor of
// each kind sharing one repository, with most questions repeated so both
// filled and unfilled cells are read between mutations.
func TestHistoryBasedTableMatchesUncached(t *testing.T) {
	// Eight jobs over three operations: the six searches share table cells
	// but not priors.
	g := workload.DataScenario(workload.DataParams{}).Graph
	// A prior wide enough for every resource a round can reach.
	rows := make([][]float64, g.Len())
	for j := range rows {
		rows[j] = make([]float64, 40)
		for r := range rows[j] {
			rows[j][r] = float64(10*j + r + 1)
		}
	}
	prior := cost.Exact(cost.MustTable(rows))
	ops := map[string]bool{}
	for _, jb := range g.Jobs() {
		ops[jb.Op] = true
	}
	var opNames []string
	for op := range ops {
		opNames = append(opNames, op)
	}
	sort.Strings(opNames)
	rnd := rand.New(rand.NewSource(15))
	for round := 0; round < 40; round++ {
		repo := history.New(0)
		preds := []*HistoryBased{
			{Graph: g, Repo: repo, Prior: prior},
			{Graph: g, Repo: repo, Prior: prior, UseEWMA: true},
		}
		width := 2 // resources in the grid so far
		for step := 0; step < 300; step++ {
			switch k := rnd.Intn(20); {
			case k == 0:
				width = min(width+1+rnd.Intn(6), 40) // joins, sometimes past a doubled stride
			case k == 1:
				preds[rnd.Intn(2)].UseEWMA = rnd.Intn(2) == 0
			case k == 2:
				m := 1 + 20*rnd.Float64()
				repo.Import([]history.Cell{{
					Op: opNames[rnd.Intn(len(opNames))], Resource: grid.ID(rnd.Intn(width)),
					Count: 1 + rnd.Intn(3), Mean: m, EWMA: m / 2, Min: m, Max: m, Last: m,
				}})
			case k < 6:
				if err := repo.Record(opNames[rnd.Intn(len(opNames))], grid.ID(rnd.Intn(width)), 1+30*rnd.Float64()); err != nil {
					t.Fatal(err)
				}
			default:
				p := preds[rnd.Intn(2)]
				job, r := dag.JobID(rnd.Intn(g.Len())), grid.ID(rnd.Intn(width))
				if got, want := p.Comp(job, r), uncachedComp(p, job, r); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("round %d step %d: Comp(%d, r%d) = %v from the table, %v from the repository (ewma=%v)",
						round, step, job, r, got, want, p.UseEWMA)
				}
			}
		}
	}
}

func TestHistoryBasedCommDelegates(t *testing.T) {
	g, tb, repo := setup(t)
	p := &HistoryBased{Graph: g, Repo: repo, Prior: cost.Exact(tb)}
	e := dag.Edge{From: 0, To: 1, Data: 18}
	if p.Comm(e, 0, 0) != 0 || p.Comm(e, 0, 1) != 18 {
		t.Fatal("Comm should delegate to the prior")
	}
}

func TestNoisyBoundedAndMemoised(t *testing.T) {
	_, tb, _ := setup(t)
	n := &Noisy{Base: cost.Exact(tb), Error: 0.3, Rng: rng.New(4)}
	first := n.Comp(0, 0)
	base := tb.Comp(0, 0)
	if first < 0.7*base-1e-9 || first > 1.3*base+1e-9 {
		t.Fatalf("noisy estimate %g outside ±30%% of %g", first, base)
	}
	for i := 0; i < 5; i++ {
		if n.Comp(0, 0) != first {
			t.Fatal("noisy estimate not memoised within a round")
		}
	}
	// Comm stays exact.
	e := dag.Edge{From: 0, To: 1, Data: 18}
	if n.Comm(e, 0, 1) != 18 {
		t.Fatal("noisy Comm should be exact")
	}
}

func TestNoisyPerturbsSomething(t *testing.T) {
	_, tb, _ := setup(t)
	n := &Noisy{Base: cost.Exact(tb), Error: 0.5, Rng: rng.New(4)}
	differs := 0
	for j := dag.JobID(0); j < 10; j++ {
		if n.Comp(j, 0) != tb.Comp(j, 0) {
			differs++
		}
	}
	if differs < 8 {
		t.Fatalf("only %d/10 estimates perturbed", differs)
	}
}
