package aheft_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"aheft"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/predict"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

// TestFacadeQuickstart exercises the doc-comment example end to end.
func TestFacadeQuickstart(t *testing.T) {
	ctx := context.Background()
	sc := aheft.SampleScenario()
	static, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool, aheft.WithPolicy("heft"))
	if err != nil {
		t.Fatal(err)
	}
	if static.Makespan != 80 {
		t.Fatalf("static makespan = %g, want 80", static.Makespan)
	}
	adaptive, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool,
		aheft.WithPolicy("aheft"), aheft.WithTieWindow(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Makespan != 76 {
		t.Fatalf("adaptive makespan = %g, want 76", adaptive.Makespan)
	}
	if adaptive.Policy != "aheft" || static.Policy != "heft" {
		t.Fatalf("policies = %q, %q", adaptive.Policy, static.Policy)
	}
}

// TestFacadeDefaultPolicy: Run without WithPolicy is AHEFT.
func TestFacadeDefaultPolicy(t *testing.T) {
	sc := aheft.SampleScenario()
	res, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, aheft.WithTieWindow(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "aheft" || res.Makespan != 76 {
		t.Fatalf("default policy = %q, makespan %g; want aheft, 76", res.Policy, res.Makespan)
	}
}

func TestFacadeHEFTAndMinMin(t *testing.T) {
	sc := aheft.SampleScenario()
	s, err := aheft.HEFT(sc.Graph, sc.Estimator(), sc.Pool.Initial())
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 80 {
		t.Fatalf("HEFT makespan = %g", s.Makespan())
	}
	dyn, err := aheft.MinMin(context.Background(), sc.Graph, sc.Estimator(), sc.Pool)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Makespan <= 0 {
		t.Fatal("Min-Min produced no makespan")
	}
	if dyn.Policy != "minmin" {
		t.Fatalf("policy = %q, want minmin", dyn.Policy)
	}
}

// TestFacadeUnknownPolicy: a bad name fails with the registered names in
// the error.
func TestFacadeUnknownPolicy(t *testing.T) {
	sc := aheft.SampleScenario()
	_, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, aheft.WithPolicy("nope"))
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestFacadePolicies: the registry lists the built-ins.
func TestFacadePolicies(t *testing.T) {
	have := make(map[string]bool)
	for _, name := range aheft.Policies() {
		have[name] = true
	}
	for _, want := range []string{"heft", "aheft", "minmin", "maxmin", "sufferage"} {
		if !have[want] {
			t.Fatalf("registry %v missing %q", aheft.Policies(), want)
		}
	}
}

// TestFacadeContextCancellation: a cancelled context aborts Run.
func TestFacadeContextCancellation(t *testing.T) {
	sc := aheft.SampleScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The event-driven path honours cancellation too.
	if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool, aheft.WithRuntime(sc.Estimator())); err != context.Canceled {
		t.Fatalf("event-driven err = %v, want context.Canceled", err)
	}
}

// TestFacadeEventDrivenMatchesAnalytic: WithRuntime switches engines but,
// with runtimes equal to the estimates, not results (the integration
// tests in internal/planner hold this across many scenarios; here the
// facade wiring itself is checked), in the classic mode and with a file
// catalog, where the enactment stages files as the plan priced them.
func TestFacadeEventDrivenMatchesAnalytic(t *testing.T) {
	ctx := context.Background()
	sample := aheft.SampleScenario()
	cases := []struct {
		sc   *aheft.Scenario
		opts []aheft.Option
	}{{sample, []aheft.Option{aheft.WithTieWindow(0.05)}}}
	for _, n := range []int{16, 64} {
		sc := workload.DataScenario(workload.DataParams{Searches: n})
		cases = append(cases, struct {
			sc   *aheft.Scenario
			opts []aheft.Option
		}{sc, []aheft.Option{aheft.WithFileReuse(sc.Files)}})
	}
	for _, c := range cases {
		for _, pol := range []string{"heft", "aheft"} {
			opts := append([]aheft.Option{aheft.WithPolicy(pol)}, c.opts...)
			analytic, err := aheft.Run(ctx, c.sc.Graph, c.sc.Estimator(), c.sc.Pool, opts...)
			if err != nil {
				t.Fatal(err)
			}
			des, err := aheft.Run(ctx, c.sc.Graph, c.sc.Estimator(), c.sc.Pool,
				append(opts, aheft.WithRuntime(c.sc.Estimator()))...)
			if err != nil {
				t.Fatal(err)
			}
			if analytic.Makespan != des.Makespan {
				t.Fatalf("%s/%s: event-driven makespan %g != analytic %g",
					c.sc.Graph.Name(), pol, des.Makespan, analytic.Makespan)
			}
		}
	}
}

// TestFacadeHistoryAndTrace: an event-driven run fills the caller's
// history, and its Result carries the trace of what the planner did — the
// decision list cmd/gridsim writes its -trace from.
func TestFacadeHistoryAndTrace(t *testing.T) {
	sc := aheft.SampleScenario()
	hist := aheft.NewHistory()
	res, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool,
		aheft.WithTieWindow(0.05), aheft.WithHistory(hist))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 76 {
		t.Fatalf("makespan = %g, want 76", res.Makespan)
	}
	if hist.Len() == 0 {
		t.Fatal("history not recorded")
	}
	if len(res.Decisions) != 1 {
		t.Fatalf("decisions = %+v, want one", res.Decisions)
	}
	if d := res.Decisions[0]; d.Clock != 15 || !d.Adopted || d.Trigger.String() != "arrival" || d.ArrivedCount != 1 {
		t.Fatalf("decision = %+v, want the r4 arrival at t=15, adopted", d)
	}
	// The Performance Monitor measures regardless of policy: a static HEFT
	// run with a history still populates it.
	staticHist := aheft.NewHistory()
	if _, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool,
		aheft.WithPolicy("heft"), aheft.WithHistory(staticHist)); err != nil {
		t.Fatal(err)
	}
	if staticHist.Len() == 0 {
		t.Fatal("static run recorded no history")
	}
}

// TestFacadeRejectsUnenactableCombos: just-in-time policies and the
// restart-running ablation are analytic-only; combining them with
// event-driven options must fail loudly instead of silently changing
// semantics (ship-on-finish enactment would, e.g., turn the sample
// Min-Min makespan of 100 into 85).
func TestFacadeRejectsUnenactableCombos(t *testing.T) {
	ctx := context.Background()
	sc := aheft.SampleScenario()
	for _, pol := range []string{"minmin", "maxmin", "sufferage"} {
		if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool,
			aheft.WithPolicy(pol), aheft.WithRuntime(sc.Estimator())); err == nil {
			t.Fatalf("%s + WithRuntime accepted", pol)
		}
		if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool,
			aheft.WithPolicy(pol), aheft.WithHistory(aheft.NewHistory())); err == nil {
			t.Fatalf("%s + WithHistory accepted", pol)
		}
		// The analytic path keeps working.
		if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool, aheft.WithPolicy(pol)); err != nil {
			t.Fatalf("%s analytic: %v", pol, err)
		}
	}
	if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool,
		aheft.WithRestartRunning(), aheft.WithRuntime(sc.Estimator())); err == nil {
		t.Fatal("WithRestartRunning + WithRuntime accepted")
	}
	if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool, aheft.WithRestartRunning()); err != nil {
		t.Fatalf("analytic restart ablation: %v", err)
	}
	// A variance threshold alone runs against a fresh history.
	if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool, aheft.WithVarianceThreshold(0.2)); err != nil {
		t.Fatalf("variance threshold alone: %v", err)
	}
}

// TestConcurrentRuns: many workflows over one pool are many Run calls.
// Concurrent runs share the pool, the estimator and the policy registry,
// and must each produce what the same run produces alone (run it with
// -race).
func TestConcurrentRuns(t *testing.T) {
	sc := aheft.SampleScenario()
	est := sc.Estimator()
	variants := [][]aheft.Option{
		{aheft.WithPolicy("heft")},
		{aheft.WithPolicy("aheft"), aheft.WithTieWindow(0.05)},
		{aheft.WithPolicy("minmin")},
		{aheft.WithTieWindow(0.05), aheft.WithRuntime(est)},
	}
	want := make([]float64, len(variants))
	for i, opts := range variants {
		res, err := aheft.Run(context.Background(), sc.Graph, est, sc.Pool, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Makespan
	}
	const copies = 4
	got := make([]float64, copies*len(variants))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := aheft.Run(context.Background(), sc.Graph, est, sc.Pool, variants[k%len(variants)]...)
			if errs[k] = err; err == nil {
				got[k] = res.Makespan
			}
		}()
	}
	wg.Wait()
	for k := range got {
		if errs[k] != nil || got[k] != want[k%len(variants)] {
			t.Fatalf("concurrent run %d: makespan %g, err %v; alone %g", k, got[k], errs[k], want[k%len(variants)])
		}
	}
}

// TestRuntimeAdaptiveBeatsStatic is the library twin of the daemon's
// TestDriveClosedLoopBeatsStatic: BLAST and WIEN2K workflows on their
// scenario's growing pool, with actual runtimes up to ±20 % off the
// estimates. Under the same runtimes, the adaptive loop (replan on every
// arrival and significant variance, adopt only improvements) must finish
// earlier on average than the one-shot HEFT plan.
func TestRuntimeAdaptiveBeatsStatic(t *testing.T) {
	const perClass = 8
	gp := workload.GridParams{InitialResources: 6, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 4}
	for _, class := range []struct {
		name string
		make func(*rng.Source) (*workload.Scenario, error)
	}{
		{"blast", func(r *rng.Source) (*workload.Scenario, error) {
			return workload.BlastScenario(workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}, gp, r)
		}},
		{"wien2k", func(r *rng.Source) (*workload.Scenario, error) {
			return workload.Wien2kScenario(workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}, gp, r)
		}},
	} {
		t.Run(class.name, func(t *testing.T) {
			r := rng.New(0xfeedba5e)
			adaptiveSum, staticSum := 0.0, 0.0
			for i := 0; i < perClass; i++ {
				sc, err := class.make(r)
				if err != nil {
					t.Fatal(err)
				}
				// One memoised draw per (job, resource): both runs see the
				// same actual runtimes whatever order they ask in.
				rt := &predict.Noisy{Base: sc.Estimator(), Error: 0.2, Rng: r.Split(fmt.Sprintf("noise-%d", i))}
				var mk [2]float64
				for k, pol := range []string{"heft", "aheft"} {
					res, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool,
						aheft.WithPolicy(pol), aheft.WithRuntime(rt))
					if err != nil {
						t.Fatalf("%s-%d %s: %v", class.name, i, pol, err)
					}
					mk[k] = res.Makespan
				}
				staticSum += mk[0]
				adaptiveSum += mk[1]
				t.Logf("%s-%d: static=%.1f adaptive=%.1f", class.name, i, mk[0], mk[1])
			}
			if adaptiveSum >= staticSum {
				t.Fatalf("%s: mean adaptive makespan %.1f not below static %.1f",
					class.name, adaptiveSum/perClass, staticSum/perClass)
			}
		})
	}
}

// TestVarianceThresholdTriggersEvaluation: the Performance Monitor path.
// Every job runs 1.6× its estimate against a history that holds the
// estimates, so the first finish on each (operation, resource) cell
// deviates by 60 % and the planner must evaluate on it.
func TestVarianceThresholdTriggersEvaluation(t *testing.T) {
	sc := aheft.SampleScenario()
	est := sc.Estimator()
	hist := aheft.NewHistory()
	for _, j := range sc.Graph.Jobs() {
		for r := 0; r < sc.Pool.Size(); r++ {
			_ = hist.Record(j.Op, grid.ID(r), est.Comp(j.ID, grid.ID(r)))
		}
	}
	res, err := aheft.Run(context.Background(), sc.Graph, est, sc.Pool,
		aheft.WithRuntime(slow{est, 1.6}), aheft.WithHistory(hist), aheft.WithVarianceThreshold(0.25))
	if err != nil {
		t.Fatal(err)
	}
	variance := 0
	for _, d := range res.Decisions {
		if d.Trigger.String() == "variance" {
			variance++
		}
	}
	if variance == 0 {
		t.Fatalf("no variance-triggered evaluation: %+v", res.Decisions)
	}
}

// slow is a runtime factor× the estimator's computation costs.
type slow struct {
	est    aheft.Estimator
	factor float64
}

func (s slow) Comp(j aheft.JobID, r grid.ID) float64 { return s.factor * s.est.Comp(j, r) }
func (s slow) Comm(e dag.Edge, a, b grid.ID) float64 { return s.est.Comm(e, a, b) }

func TestFacadeGraphConstruction(t *testing.T) {
	g := aheft.NewGraph("mini")
	a := g.AddJob("a", "op")
	b := g.AddJob("b", "op")
	g.MustEdge(a, b, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if aheft.StaticPool(2).Size() != 2 {
		t.Fatal("StaticPool wrong")
	}
}
