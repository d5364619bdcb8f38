package planner_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"aheft"
	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/testleak"
	"aheft/internal/workload"
)

// cancelScenario builds a workflow whose pool fires several reschedule
// events before the makespan, so there is a well-defined "between
// reschedule events" window to cancel in.
func cancelScenario(t *testing.T) *workload.Scenario {
	t.Helper()
	sc, err := workload.RandomScenario(workload.RandomParams{
		Jobs: 40, CCR: 1, OutDegree: 0.3, Beta: 0.5,
	}, workload.GridParams{
		InitialResources: 4, ChangeInterval: 120, ChangePct: 0.25, MaxEvents: 6,
	}, rng.New(0xC0))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunPolicyCancelBetweenEvents cancels the context from the decision
// observer — i.e. exactly between two reschedule evaluations — and
// checks the analytic engine aborts with the context's error instead of
// walking the remaining events.
func TestRunPolicyCancelBetweenEvents(t *testing.T) {
	sc := cancelScenario(t)
	pol, err := policy.Get("aheft")
	if err != nil {
		t.Fatal(err)
	}
	// Reference run: the scenario must actually produce ≥ 2 decisions,
	// otherwise the cancellation window does not exist.
	ref, err := planner.RunPolicy(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, pol, policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Decisions) < 2 {
		t.Fatalf("scenario produced %d decisions, need >= 2", len(ref.Decisions))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	res, err := planner.RunPolicyObserved(ctx, sc.Graph, sc.Estimator(), sc.Pool, pol, policy.Options{}, func(planner.Decision) {
		seen++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (res %v)", err, res)
	}
	if seen != 1 {
		t.Fatalf("engine evaluated %d more events after cancellation", seen-1)
	}
}

// cancellingRuntime is an accurate runtime that cancels a context on its
// nth runtime lookup. The enactor looks up a pending job's runtime each
// time it prices the plan: every job's when the run starts, then those
// still pending at each adoption. An n past the job count lands the
// cancellation at the first adoption, mid-execution.
type cancellingRuntime struct {
	est    cost.Estimator
	after  int
	calls  int
	cancel context.CancelFunc
}

func (c *cancellingRuntime) Comp(j dag.JobID, r grid.ID) float64 {
	c.calls++
	if c.calls == c.after {
		c.cancel()
	}
	return c.est.Comp(j, r)
}

// TestServiceExecuteContextCancelMidRun drives Run's event-driven path
// (WithRuntime: the feedback Tracker enacted in process) and cancels
// mid-execution: Run must return the context's error (observed at the
// next run-time event), with some but not all jobs run and reported, and
// leave no goroutine behind.
func TestServiceExecuteContextCancelMidRun(t *testing.T) {
	sc := cancelScenario(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt := &cancellingRuntime{est: sc.Estimator(), after: sc.Graph.Len() + 1, cancel: cancel}
	hist := aheft.NewHistory()
	res, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool, aheft.WithRuntime(rt), aheft.WithHistory(hist))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res %v), want context.Canceled", err, res)
	}
	ran := 0
	for _, k := range hist.Keys() {
		s, _ := hist.Lookup(k.Op, k.Resource)
		ran += s.Count
	}
	if ran == 0 || ran >= sc.Graph.Len() {
		t.Fatalf("%d of %d jobs ran before the run stopped, want the cancellation mid-run", ran, sc.Graph.Len())
	}
	// The discrete-event engine is synchronous, so nothing may linger.
	testleak.Check(t, baseline, 0)
}

// TestServiceExecuteContextPreCancelled: on the event-driven path an
// already-cancelled context aborts before any execution.
func TestServiceExecuteContextPreCancelled(t *testing.T) {
	sc := cancelScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt := &cancellingRuntime{est: sc.Estimator(), cancel: cancel}
	if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool, aheft.WithRuntime(rt)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rt.calls != 0 {
		t.Fatalf("engine started %d jobs under a cancelled context", rt.calls)
	}
}
