package feedback

import (
	"math"
	"testing"

	"aheft/internal/history"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

func newScenarioTracker(t *testing.T, sc *workload.Scenario, opts policy.Options) *Tracker {
	t.Helper()
	tr, err := New(Config{
		Graph:   sc.Graph,
		Prior:   sc.Estimator(),
		Pool:    sc.Pool,
		History: history.New(0),
		Policy:  policy.MustGet("aheft"),
		Opts:    opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// appScenario builds a BLAST or WIEN2K scenario of about 100 jobs on 10
// initial resources, with one far-off arrival event whose resources give
// a what-if query cost columns to add.
func appScenario(t *testing.T, build func(workload.AppParams, workload.GridParams, *rng.Source) (*workload.Scenario, error), parallelism int, seed uint64) *workload.Scenario {
	t.Helper()
	sc, err := build(workload.AppParams{Parallelism: parallelism, CCR: 1, Beta: 0.5},
		workload.GridParams{InitialResources: 10, ChangeInterval: 1e9, ChangePct: 1, MaxEvents: 1}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestWhatIfVerdicts pins the §3.3 verdict of three mid-run queries, each
// asked after the initial plan ran faithfully up to the query clock (a
// negative clock there means a quarter of the initial makespan). The
// tracker pools measured durations per operation; with the prior alone as
// the estimator BLAST reads 3955.55 → 3878.44 and WIEN2K 2866.81 →
// 2914.50, so a change to that pooling re-records these numbers.
func TestWhatIfVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sc        *workload.Scenario
		q         wire.WhatIfRequest
		pool      int
		cur, next float64
		adopt     bool
	}{
		{"sample", workload.SampleScenario(), wire.WhatIfRequest{Clock: 10, Add: []int{3}},
			4, 80, 87, false},
		{"blast", appScenario(t, workload.BlastScenario, workload.BlastParallelism(100), 1),
			wire.WhatIfRequest{Clock: -1, Add: []int{10}},
			11, 3877.1061582748985, 3737.3878084633197, true},
		{"wien2k remove r1", appScenario(t, workload.Wien2kScenario, workload.Wien2kParallelism(100), 2),
			wire.WhatIfRequest{Clock: -1, Add: []int{10}, Remove: []int{0}},
			10, 2866.8057378525177, 2915.9830608481298, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newScenarioTracker(t, tc.sc, policy.Options{})
			if tc.q.Clock < 0 {
				tc.q.Clock = tr.InitialMakespan() / 4
			}
			applyPlanUntil(t, tr, tc.q.Clock)
			doc, err := tr.WhatIf(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			want := wire.WhatIfDoc{Clock: tc.q.Clock, PoolSize: tc.pool, CurrentMakespan: tc.cur,
				NewMakespan: tc.next, Delta: tc.next - tc.cur, WouldAdopt: tc.adopt}
			if *doc != want {
				t.Fatalf("what-if %+v: %+v, want %+v", tc.q, *doc, want)
			}
		})
	}
}

// TestWhatIfRemovalNeverAdopted: taking a resource away mid-run cannot
// shorten the plan, so the answer is never an adoption.
func TestWhatIfRemovalNeverAdopted(t *testing.T) {
	tr, _ := newSampleTracker(t, policy.Options{})
	applyPlanUntil(t, tr, 15)
	doc, err := tr.WhatIf(wire.WhatIfRequest{Clock: 15, Remove: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if doc.PoolSize != 2 || doc.CurrentMakespan != 80 || doc.NewMakespan != 109 || doc.WouldAdopt {
		t.Fatalf("what-if without r2 at 15: %+v, want pool 2, 80 → 109, keep", *doc)
	}
}

// TestWhatIfMonotoneInAdditions: adding more of the scenario's future
// resources never predicts a worse makespan than adding fewer, each
// answer priced against the same current plan.
func TestWhatIfMonotoneInAdditions(t *testing.T) {
	sc, err := workload.BlastScenario(workload.AppParams{Parallelism: 40, CCR: 0.5, Beta: 0.5},
		workload.GridParams{InitialResources: 6, ChangeInterval: 1e9, ChangePct: 1, MaxEvents: 1}, rng.New(0x99))
	if err != nil {
		t.Fatal(err)
	}
	tr := newScenarioTracker(t, sc, policy.Options{})
	clock := tr.InitialMakespan() / 4
	applyPlanUntil(t, tr, clock)
	var future []int
	for _, a := range sc.Pool.Arrivals() {
		if a.Time > clock {
			future = append(future, int(a.Resource.ID))
		}
	}
	prev := 2466.899796293742 // the current plan's makespan
	for i, n := range []int{1, 2, 4} {
		doc, err := tr.WhatIf(wire.WhatIfRequest{Clock: clock, Add: future[:n]})
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{2247.217301277832, 2110.6060491560743, 1782.3715431393248}[i]
		if doc.CurrentMakespan != 2466.899796293742 || doc.NewMakespan != want || doc.NewMakespan > prev {
			t.Fatalf("adding %d: %g → %g, want 2466.899796293742 → %g, at most %g",
				n, doc.CurrentMakespan, doc.NewMakespan, want, prev)
		}
		prev = doc.NewMakespan
	}
}

// TestWhatIfAddResource asks the paper's §3.3 question at t=15 on the
// Fig. 4 pool: r4 joining then turns the 80 plan into the adopted 76.
func TestWhatIfAddResource(t *testing.T) {
	tr, _ := newSampleTracker(t, policy.Options{TieWindow: 0.05})
	applyPlanUntil(t, tr, 15)
	doc, err := tr.WhatIf(wire.WhatIfRequest{Clock: 15, Add: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if doc.CurrentMakespan != 80 || doc.NewMakespan != 76 || !doc.WouldAdopt || doc.Delta != -4 {
		t.Fatalf("what-if add r4 at 15: %+v, want 80 → 76 (delta -4), adopt", *doc)
	}
}

// TestWhatIfRemoveRunningJobsResource: at t=15 n3 runs on r3 (ID 2).
// Without r3, n3 restarts on a remaining resource no earlier than the
// clock, so the answer is a later makespan (99) on two resources, and the
// live plan keeps n3 where it runs.
func TestWhatIfRemoveRunningJobsResource(t *testing.T) {
	tr, sc := newSampleTracker(t, policy.Options{})
	n3 := sc.Graph.JobByName("n3")
	if a := tr.Plan().MustGet(n3); a.Resource != 2 || a.Start >= 15 || a.Finish <= 15 {
		t.Fatalf("n3 is not running on r3 at 15 in the initial plan: %+v", a)
	}
	applyPlanUntil(t, tr, 15)
	doc, err := tr.WhatIf(wire.WhatIfRequest{Clock: 15, Remove: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if doc.PoolSize != 2 || doc.CurrentMakespan != 80 || doc.NewMakespan != 99 || doc.WouldAdopt {
		t.Fatalf("what-if without r3 at 15: %+v, want pool 2, 80 → 99, keep", *doc)
	}
	if a := tr.Plan().MustGet(n3); a.Resource != 2 {
		t.Fatalf("what-if moved n3 in the live plan: %+v", a)
	}
}

// TestWhatIfErrors: a query the tracker cannot price is refused, and the
// refusal leaves the live plan as it was.
func TestWhatIfErrors(t *testing.T) {
	tr, _ := newSampleTracker(t, policy.Options{})
	for _, q := range []wire.WhatIfRequest{
		{Clock: 0, Remove: []int{0, 1, 2}}, // empty hypothetical pool
		{Clock: 0, Add: []int{-1}},
		{Clock: 0, Remove: []int{4}},
		{Clock: math.NaN()},
		{Clock: math.Inf(1)},
	} {
		if doc, err := tr.WhatIf(q); err == nil {
			t.Fatalf("what-if %+v accepted: %+v", q, *doc)
		}
	}
	if tr.Generation() != 1 || tr.Plan().Makespan() != 80 {
		t.Fatalf("refused what-if mutated the live plan: gen=%d mk=%g", tr.Generation(), tr.Plan().Makespan())
	}
}
