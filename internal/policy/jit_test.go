package policy

// Behavioural suite of the just-in-time Min-Min family, migrated from the
// deleted legacy internal/minmin package: the same scenarios and expected
// makespans now run through the registered policies and the shared
// scheduling kernel.

import (
	"fmt"
	"math"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

// runJIT plans one workflow under the named just-in-time policy through
// a fresh kernel, as the engine would.
func runJIT(t *testing.T, g *dag.Graph, est cost.Estimator, pool *grid.Pool, name string) *schedule.Schedule {
	t.Helper()
	s, err := MustGet(name).Plan(kernel.New(g, est), pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// jitNames names the just-in-time policies.
var jitNames = []string{"minmin", "maxmin", "sufferage"}

func chain(t *testing.T, n int) *dag.Graph {
	t.Helper()
	g := dag.New("chain")
	var prev dag.JobID = dag.NoJob
	for i := 0; i < n; i++ {
		j := g.AddJob(fmt.Sprintf("c%d", i), "")
		if prev != dag.NoJob {
			g.MustEdge(prev, j, 5)
		}
		prev = j
	}
	return g.MustValidate()
}

func uniformTable(jobs, res int, w float64) *cost.Table {
	comp := make([][]float64, jobs)
	for i := range comp {
		row := make([]float64, res)
		for j := range row {
			row[j] = w
		}
		comp[i] = row
	}
	return cost.MustTable(comp)
}

// TestChainOnOneResource: a serial chain on a single resource finishes in
// the serial sum with no transfers.
func TestChainOnOneResource(t *testing.T) {
	g := chain(t, 5)
	tb := uniformTable(5, 1, 10)
	s := runJIT(t, g, cost.Exact(tb), grid.StaticPool(1), "minmin")
	if s.Makespan() != 50 {
		t.Fatalf("makespan = %g, want 50", s.Makespan())
	}
	if s.Len() != 5 {
		t.Fatalf("decisions = %d, want 5", s.Len())
	}
}

// TestChainStaysPut: with equal speeds, the dynamic mapper keeps a chain
// on the resource that holds its files (moving would add transfer time),
// so the makespan is again the serial sum.
func TestChainStaysPut(t *testing.T) {
	g := chain(t, 5)
	tb := uniformTable(5, 3, 10)
	s := runJIT(t, g, cost.Exact(tb), grid.StaticPool(3), "minmin")
	if s.Makespan() != 50 {
		t.Fatalf("makespan = %g, want 50 (no pointless migration)\n%s", s.Makespan(), s)
	}
}

// fanout builds one source feeding n independent sinks.
func fanout(t *testing.T, n int, data float64) *dag.Graph {
	t.Helper()
	g := dag.New("fanout")
	src := g.AddJob("src", "")
	for i := 0; i < n; i++ {
		s := g.AddJob(fmt.Sprintf("s%d", i), "")
		g.MustEdge(src, s, data)
	}
	return g.MustValidate()
}

// TestFanoutUsesParallelism: independent sinks spread over resources.
func TestFanoutUsesParallelism(t *testing.T) {
	g := fanout(t, 4, 0) // free transfers isolate the parallelism question
	tb := uniformTable(5, 4, 10)
	s := runJIT(t, g, cost.Exact(tb), grid.StaticPool(4), "minmin")
	// src 10, then 4 sinks in parallel on 4 resources: 20 total.
	if s.Makespan() != 20 {
		t.Fatalf("makespan = %g, want 20\n%s", s.Makespan(), s)
	}
}

// TestTransferStallsResource: with the just-in-time policy, a cross-
// resource consumer pays its transfer after binding — the executor cannot
// overlap it with upstream computation.
func TestTransferStallsResource(t *testing.T) {
	g := fanout(t, 2, 30)
	// src cost 10 everywhere; sinks cost 10.
	tb := uniformTable(3, 2, 10)
	s := runJIT(t, g, cost.Exact(tb), grid.StaticPool(2), "minmin")
	// src on r0 finishes at 10. Both sinks are ready at 10: Min-Min first
	// binds the co-located one (completion 20 beats 50), then — being a
	// just-in-time mapper that drains the ready set onto idle machines —
	// binds the second sink to the idle r1, which stalls 30 time units on
	// the input transfer and computes 40→50. A full-ahead plan would have
	// overlapped that transfer with the first sink's computation (or
	// queued the job locally, finishing at 30); the dynamic executor can
	// do neither, and that gap is the paper's §4.2 story.
	if s.Makespan() != 50 {
		t.Fatalf("makespan = %g, want 50\n%s", s.Makespan(), s)
	}
	second := s.MustGet(g.JobByName("s1"))
	if second.Resource == 0 {
		second = s.MustGet(g.JobByName("s0"))
	}
	if second.Start != 40 || second.Finish != 50 {
		t.Fatalf("stalled sink = %+v, want compute [40,50)", second)
	}
}

// TestResourceArrivalUsed: jobs becoming ready after an arrival can use
// the new resource.
func TestResourceArrivalUsed(t *testing.T) {
	g := fanout(t, 3, 0)
	tb := uniformTable(4, 2, 10)
	pool := grid.MustPool([]grid.Arrival{
		{Time: 0, Resource: grid.Resource{ID: 0}},
		{Time: 12, Resource: grid.Resource{ID: 1}},
	})
	s := runJIT(t, g, cost.Exact(tb), pool, "minmin")
	// src 0→10 on r0; sinks ready at 10: s0 on r0 10→20; r1 arrives at 12:
	// s1 12→22 on r1; s2 on r0 20→30. Makespan 30 (vs 40 on one resource).
	if s.Makespan() != 30 {
		t.Fatalf("makespan = %g, want 30\n%s", s.Makespan(), s)
	}
	used := s.Resources()
	if len(used) != 2 {
		t.Fatalf("arrival not used:\n%s", s)
	}
}

// TestJITScheduleStructurallySound: property test over random workloads
// for all three heuristics — complete coverage, no resource overlaps, and
// precedence (with the dynamic, decision-time transfer model) respected.
func TestJITScheduleStructurallySound(t *testing.T) {
	root := rng.New(0x5EED)
	for i := 0; i < 20; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		sc, err := workload.RandomScenario(workload.RandomParams{
			Jobs: 10 + r.IntN(40), CCR: []float64{0.5, 5}[r.IntN(2)], OutDegree: 0.3, Beta: 0.5,
		}, workload.GridParams{
			InitialResources: 2 + r.IntN(5), ChangeInterval: 300, ChangePct: 0.3, MaxEvents: 3,
		}, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range jitNames {
			s := runJIT(t, sc.Graph, sc.Estimator(), sc.Pool, h)
			if err := s.Validate(sc.Graph, schedule.ValidateOptions{Pool: sc.Pool}); err != nil {
				t.Fatalf("case %d %s: %v", i, h, err)
			}
			// Precedence: a consumer's compute start is never before its
			// producer's finish.
			for _, j := range sc.Graph.Jobs() {
				aj := s.MustGet(j.ID)
				for _, e := range sc.Graph.Preds(j.ID) {
					ap := s.MustGet(e.From)
					if aj.Start+1e-9 < ap.Finish {
						t.Fatalf("case %d %s: %s starts %g before producer ends %g",
							i, h, j.Name, aj.Start, ap.Finish)
					}
				}
			}
		}
	}
}

// TestHeuristicsWithinFewPercent reproduces the observation (cited by the
// paper from the scheduling test bench study) that the batch heuristics
// behave very similarly on average.
func TestHeuristicsWithinFewPercent(t *testing.T) {
	root := rng.New(0xAB)
	sums := map[string]float64{}
	for i := 0; i < 30; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		sc, err := workload.RandomScenario(workload.RandomParams{
			Jobs: 30, CCR: 1, OutDegree: 0.3, Beta: 0.5,
		}, workload.GridParams{InitialResources: 8}, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range jitNames {
			s := runJIT(t, sc.Graph, sc.Estimator(), sc.Pool, h)
			sums[h] += s.Makespan()
		}
	}
	base := sums["minmin"]
	for h, s := range sums {
		if rel := math.Abs(s-base) / base; rel > 0.25 {
			t.Fatalf("%s deviates %.0f%% from Min-Min (sum %g vs %g)", h, 100*rel, s, base)
		}
	}
}

// planY plans g on pool under every just-in-time rule and requires the
// job named y to run on r0 over [10, 20]. The same-instant cases below
// are built so that the other order binds y elsewhere: each cost table
// is asymmetric, and the cheaper resource r1 is idle at 10 only under
// the wrong order.
func planY(t *testing.T, g *dag.Graph, tb *cost.Table, pool *grid.Pool) {
	t.Helper()
	for _, name := range jitNames {
		s, err := MustGet(name).Plan(kernel.New(g, cost.Exact(tb)), pool, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		y := s.MustGet(g.JobByName("y"))
		if y.Resource != 0 || y.Start != 10 || y.Finish != 20 {
			t.Fatalf("%s: y = %+v, want r0 [10, 20]\n%s", name, y, s)
		}
	}
}

// pair is the two-job chain from -> to.
func pair(from, to string) *dag.Graph {
	g := dag.New("pair")
	a := g.AddJob(from, "")
	g.MustEdge(a, g.AddJob(to, ""), 0)
	return g
}

// TestDispatchFinishBeforeArrival: at one instant the dispatch loop takes
// every finish, each followed by a dispatch, before the resources that
// join then. x finishes on r0 at 10 as r1 joins. The finish dispatches y
// while r0 is the only idle resource, so y runs on r0 [10, 20]; had r1
// joined first, y would see both and take r1 [10, 15].
func TestDispatchFinishBeforeArrival(t *testing.T) {
	planY(t, pair("x", "y").MustValidate(),
		cost.MustTable([][]float64{{10, 10}, {10, 5}}),
		grid.MustPool([]grid.Arrival{
			{Time: 0, Resource: grid.Resource{ID: 0}},
			{Time: 10, Resource: grid.Resource{ID: 1}},
		}))
}

// TestDispatchFinishesInBindingOrder: equal finishes are taken in the
// order their jobs were bound. x (bound first, on r0) and w (on r1) both
// finish at 10. x's finish dispatches its child y while r0 is the only
// idle resource, so y runs on r0 [10, 20]; had w's finish gone first, r1
// would be idle too and y would take it [10, 15].
func TestDispatchFinishesInBindingOrder(t *testing.T) {
	g := pair("x", "y")
	g.AddJob("w", "")
	planY(t, g.MustValidate(),
		cost.MustTable([][]float64{{10, 10}, {10, 5}, {10, 10}}),
		grid.StaticPool(2))
}

// badCost answers every computation with one value the dispatch loop
// must refuse.
type badCost float64

func (b badCost) Comp(dag.JobID, grid.ID) float64 { return float64(b) }

// requirePanic plans a two-job chain whose every computation costs c and
// requires the dispatch loop to fail loudly instead of running out of
// order.
func requirePanic(t *testing.T, c float64) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("a finish computed with cost %g did not panic", c)
		}
	}()
	_, _ = MustGet("minmin").Plan(kernel.New(chain(t, 2), badCost(c)), grid.StaticPool(1), Options{})
}

// TestDispatchPastFinishPanics: a job whose finish would fall before the
// instant it is bound is a logic error.
func TestDispatchPastFinishPanics(t *testing.T) {
	requirePanic(t, -1)
}

// TestDispatchNonFiniteFinishPanics: a job whose finish would fall at a
// non-finite time is a logic error.
func TestDispatchNonFiniteFinishPanics(t *testing.T) {
	requirePanic(t, math.Inf(1))
	requirePanic(t, math.NaN())
}
