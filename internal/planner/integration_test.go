package planner_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"aheft"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/predict"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

// The tests in this file hold the analytic runner to the run-time
// architecture: aheft.Run with WithRuntime enacts the workflow on the
// discrete-event executor while the daemon's feedback.Tracker plans it
// from every reported start, finish and arrival.

// scenarios yields a diverse, seeded set of test cases spanning random
// DAGs and both application shapes under various grid dynamics.
func testScenarios(t *testing.T, n int) []*workload.Scenario {
	t.Helper()
	root := rng.New(0xA11CE)
	var out []*workload.Scenario
	for i := 0; i < n; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		gp := workload.GridParams{
			InitialResources: 3 + r.IntN(8),
			ChangeInterval:   []float64{150, 300, 600}[r.IntN(3)],
			ChangePct:        []float64{0.1, 0.2, 0.3}[r.IntN(3)],
		}
		var (
			sc  *workload.Scenario
			err error
		)
		switch i % 3 {
		case 0:
			sc, err = workload.RandomScenario(workload.RandomParams{
				Jobs:      10 + r.IntN(40),
				CCR:       []float64{0.2, 1, 5}[r.IntN(3)],
				OutDegree: 0.2,
				Beta:      []float64{0.1, 0.5, 1}[r.IntN(3)],
			}, gp, r)
		case 1:
			sc, err = workload.BlastScenario(workload.AppParams{
				Parallelism: 3 + r.IntN(12),
				CCR:         []float64{0.2, 1, 5}[r.IntN(3)],
				Beta:        0.5,
			}, gp, r)
		default:
			sc, err = workload.Wien2kScenario(workload.AppParams{
				Parallelism: 3 + r.IntN(12),
				CCR:         []float64{0.2, 1, 5}[r.IntN(3)],
				Beta:        0.5,
			}, gp, r)
		}
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		out = append(out, sc)
	}
	return out
}

// warmed returns a history holding one observation of every (operation,
// resource) cell of the scenario's cost table: the paper's
// accurate-estimation assumption stated as history. The Predictor answers
// a cell nobody has measured with the operation's mean over the other
// resources, and BLAST and WIEN2K share operations across jobs on
// heterogeneous pools, so a cold history drifts from the cost table even
// when every runtime is exact. Costs are per operation, so one
// observation per cell is the exact estimate.
func warmed(sc *workload.Scenario) *history.Repository {
	h := history.New(0)
	est := sc.Estimator()
	for _, j := range sc.Graph.Jobs() {
		for r := grid.ID(0); int(r) < sc.Pool.Size(); r++ {
			if _, ok := h.Lookup(j.Op, r); !ok {
				_ = h.Record(j.Op, r, est.Comp(j.ID, r))
			}
		}
	}
	return h
}

// TestStaticEnactmentMatchesSchedule checks that the event-driven executor
// reproduces a static HEFT schedule exactly: under accurate estimates,
// actual start/finish times equal the planned ones job for job.
func TestStaticEnactmentMatchesSchedule(t *testing.T) {
	for i, sc := range testScenarios(t, 24) {
		analytic, err := planner.RunPolicy(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, policy.MustGet("heft"), planner.RunOptions{})
		if err != nil {
			t.Fatalf("case %d: analytic: %v", i, err)
		}
		res, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool,
			aheft.WithPolicy("heft"), aheft.WithRuntime(sc.Estimator()), aheft.WithHistory(warmed(sc)))
		if err != nil {
			t.Fatalf("case %d (%s): execute: %v", i, sc.Graph.Name(), err)
		}
		if math.Abs(res.Makespan-analytic.Makespan) > 1e-6 {
			t.Errorf("case %d (%s): DES makespan %.6f != planned %.6f",
				i, sc.Graph.Name(), res.Makespan, analytic.Makespan)
		}
		for _, j := range sc.Graph.Jobs() {
			want := analytic.Schedule.MustGet(j.ID)
			got := res.Schedule.MustGet(j.ID)
			if got != want {
				t.Fatalf("case %d (%s): job %s enacted %+v, planned %+v",
					i, sc.Graph.Name(), j.Name, got, want)
			}
		}
	}
}

// TestAdaptiveServiceMatchesAnalyticRunner checks the central equivalence:
// the event-driven Planner/Executor collaboration (DES, Fig. 1
// architecture) and the analytic adaptive runner make identical decisions
// and produce identical makespans under accurate estimates. Random DAGs
// give every job its own operation, so they match from an empty history
// too.
func TestAdaptiveServiceMatchesAnalyticRunner(t *testing.T) {
	match := func(t *testing.T, i int, sc *workload.Scenario, tie float64, h *history.Repository) {
		t.Helper()
		analytic, err := planner.RunPolicy(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, policy.MustGet("aheft"), planner.RunOptions{TieWindow: tie})
		if err != nil {
			t.Fatalf("case %d: analytic: %v", i, err)
		}
		res, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool,
			aheft.WithTieWindow(tie), aheft.WithRuntime(sc.Estimator()), aheft.WithHistory(h))
		if err != nil {
			t.Fatalf("case %d (%s): execute: %v", i, sc.Graph.Name(), err)
		}
		if math.Abs(res.Makespan-analytic.Makespan) > 1e-6 {
			t.Errorf("case %d (%s): DES makespan %.6f != analytic %.6f",
				i, sc.Graph.Name(), res.Makespan, analytic.Makespan)
		}
		if len(res.Decisions) != len(analytic.Decisions) {
			t.Fatalf("case %d (%s): DES made %d decisions, analytic %d\nDES: %+v\nanalytic: %+v",
				i, sc.Graph.Name(), len(res.Decisions), len(analytic.Decisions),
				res.Decisions, analytic.Decisions)
		}
		for k := range res.Decisions {
			dg, dw := res.Decisions[k], analytic.Decisions[k]
			if dg.Clock != dw.Clock || dg.Adopted != dw.Adopted ||
				math.Abs(dg.NewMakespan-dw.NewMakespan) > 1e-6 {
				t.Errorf("case %d (%s): decision %d differs: DES %+v, analytic %+v",
					i, sc.Graph.Name(), k, dg, dw)
			}
		}
	}
	for _, tie := range []float64{0, 0.05} {
		t.Run(fmt.Sprintf("tie=%g", tie), func(t *testing.T) {
			for i, sc := range testScenarios(t, 24) {
				match(t, i, sc, tie, warmed(sc))
			}
		})
	}
	t.Run("random-empty-history", func(t *testing.T) {
		for i, sc := range testScenarios(t, 24) {
			if i%3 == 0 {
				match(t, i, sc, 0, history.New(0))
			}
		}
	})
}

func TestServiceStaticMatchesPlan(t *testing.T) {
	sc := workload.SampleScenario()
	res, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool,
		aheft.WithPolicy("heft"), aheft.WithRuntime(sc.Estimator()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 80 {
		t.Fatalf("makespan = %g, want 80", res.Makespan)
	}
	if res.Policy != "heft" {
		t.Fatalf("policy = %q", res.Policy)
	}
	if len(res.Decisions) != 0 {
		t.Fatalf("static run made decisions: %+v", res.Decisions)
	}
}

func TestServiceAdaptiveSample(t *testing.T) {
	sc := workload.SampleScenario()
	res, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool,
		aheft.WithTieWindow(0.05), aheft.WithRuntime(sc.Estimator()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 76 {
		t.Fatalf("makespan = %g, want 76", res.Makespan)
	}
	if res.Adoptions() != 1 {
		t.Fatalf("adoptions = %d", res.Adoptions())
	}
}

func TestServiceRecordsHistory(t *testing.T) {
	sc := workload.SampleScenario()
	repo := history.New(0)
	if _, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, aheft.WithHistory(repo)); err != nil {
		t.Fatal(err)
	}
	if repo.Len() == 0 {
		t.Fatal("no history recorded")
	}
	// Every job ran once; per-(op,resource) cells sum to the job count.
	total := 0
	for _, k := range repo.Keys() {
		s, _ := repo.Lookup(k.Op, k.Resource)
		total += s.Count
	}
	if total != sc.Graph.Len() {
		t.Fatalf("history holds %d runs, want %d", total, sc.Graph.Len())
	}
}

func TestServiceRejectsBadInput(t *testing.T) {
	sc := workload.SampleScenario()
	rt := aheft.WithRuntime(sc.Estimator())
	if _, err := aheft.Run(context.Background(), nil, sc.Estimator(), sc.Pool, rt); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), nil, rt); err == nil {
		t.Fatal("nil pool accepted")
	}
}

// TestServiceWithNoisyRuntime: when actual durations deviate from the
// estimates, the event-driven execution still completes (the engine delays
// dependents as needed) — the setting the paper's assumption 1 excludes
// from its experiments but the architecture must survive.
func TestServiceWithNoisyRuntime(t *testing.T) {
	root := rng.New(0x0DD)
	for i := 0; i < 10; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		sc, err := workload.RandomScenario(workload.RandomParams{
			Jobs: 20 + r.IntN(30), CCR: 1, OutDegree: 0.3, Beta: 0.5,
		}, workload.GridParams{
			InitialResources: 4, ChangeInterval: 200, ChangePct: 0.3, MaxEvents: 3,
		}, r)
		if err != nil {
			t.Fatal(err)
		}
		// Actual runtimes differ up to ±40% from the estimates.
		noisy := &predict.Noisy{Base: sc.Estimator(), Error: 0.4, Rng: r.Split("noise")}
		res, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, aheft.WithRuntime(noisy))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("case %d: no makespan", i)
		}
	}
}
