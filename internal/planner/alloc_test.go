//go:build !race

package planner_test

import (
	"context"
	"runtime/debug"
	"testing"

	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

// allocScenario is the daemon's submit_analytic shape: a 60-job random
// DAG, CCR 2, out-degree 0.3, on a pool that grows four times.
func allocScenario(t *testing.T) *workload.Scenario {
	t.Helper()
	sc, err := workload.RandomScenario(workload.RandomParams{Jobs: 60, CCR: 2, OutDegree: 0.3, Beta: 0.5},
		workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4}, rng.New(0xD0E))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunPolicyAllocBudget pins what one analytic run of the daemon's
// submission shape allocates: its schedules, the kernel's rank and
// timeline scratch, and little else. It was 430 while every run made
// fresh ledger, state and candidate arrays and every schedule carried a
// per-resource view. The collector is off so the pools a run draws on
// keep their entries between runs; the race detector drops pool entries
// at random, hence the build tag.
func TestRunPolicyAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sc := allocScenario(t)
	run := func() {
		res, err := planner.RunPolicy(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, policy.MustGet("aheft"), policy.Options{})
		if err != nil || len(res.Decisions) == 0 {
			t.Fatalf("run: %v, %d decisions", err, len(res.Decisions))
		}
	}
	if n := testing.AllocsPerRun(50, run); n > 155 {
		t.Errorf("RunPolicy: %v allocs per run, budget 155", n)
	}
}
