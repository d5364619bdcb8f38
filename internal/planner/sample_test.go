package planner

import (
	"context"
	"testing"

	"aheft/internal/policy"
	"aheft/internal/workload"
)

// TestSampleHEFTMakespan reproduces the paper's Fig. 5(a): classic HEFT on
// the Fig. 4 DAG over r1–r3 yields makespan 80.
func TestSampleHEFTMakespan(t *testing.T) {
	sc := workload.SampleScenario()
	res, err := RunPolicy(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, policy.MustGet("heft"), policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 80 {
		t.Fatalf("HEFT makespan = %g, want 80\n%s", res.Makespan, res.Schedule)
	}
}

// TestSampleAHEFTMakespan reproduces Fig. 5(b): with r4 joining at t = 15
// and near-tie order exploration enabled, AHEFT reschedules the unfinished
// jobs and reaches the paper's published makespan of exactly 76.
//
// Strictly greedy Fig. 3 placement (TieWindow = 0) misses this schedule by
// one locally-attractive move — n5 takes its EFT-minimal slot on r3
// (finish 38) instead of the globally better r2 slot (finish 39) — and
// therefore produces a 80 reschedule that is not adopted; see
// TestSampleAHEFTGreedy below, and the README's Quickstart for the 0.05
// window every example runs the sample with.
func TestSampleAHEFTMakespan(t *testing.T) {
	sc := workload.SampleScenario()
	res, err := RunPolicy(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, policy.MustGet("aheft"), policy.Options{TieWindow: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 76 {
		t.Fatalf("AHEFT makespan = %g, want 76\ndecisions: %+v\n%s", res.Makespan, res.Decisions, res.Schedule)
	}
	if res.Adoptions() != 1 {
		t.Fatalf("adoptions = %d, want 1 (the t=15 reschedule)", res.Adoptions())
	}
	if d := res.Decisions[0]; d.Clock != 15 || d.OldMakespan != 80 || d.NewMakespan != 76 {
		t.Fatalf("decision = %+v, want clock 15, 80 → 76", d)
	}
}

// TestSampleAHEFTGreedy documents the strictly greedy behaviour on the
// worked example: the 76 schedule exists (exhaustive search over all
// placements confirms it is the best reachable reschedule) but pure
// EFT-greedy placement produces 80, so the reschedule is rejected and the
// makespan stays at the static 80.
func TestSampleAHEFTGreedy(t *testing.T) {
	sc := workload.SampleScenario()
	res, err := RunPolicy(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, policy.MustGet("aheft"), policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 80 {
		t.Fatalf("greedy AHEFT makespan = %g, want 80 (reschedule not adopted)", res.Makespan)
	}
	if res.Adoptions() != 0 {
		t.Fatalf("adoptions = %d, want 0", res.Adoptions())
	}
}
