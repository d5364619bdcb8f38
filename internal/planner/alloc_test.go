//go:build !race

package planner_test

import (
	"context"
	"runtime"
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
// submission shape allocates: its schedules and decisions, and little
// else — 30 objects and 17.4 KB. It was 430 objects while every run made
// fresh ledger, state and candidate arrays and every schedule carried a
// per-resource view, and 145 objects and 35.9 KB while every kernel grew
// its rank, history and timeline scratch anew. The budgets leave about
// 10 % of slack. The collector is off so the pools a run draws on keep
// their entries between runs, and one P runs the test so an entry put
// back in one P's private slot is not missed from another; the race
// detector drops pool entries at random, hence the build tag.
func TestRunPolicyAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sc := allocScenario(t)
	run := func() {
		res, err := planner.RunPolicy(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, policy.MustGet("aheft"), policy.Options{})
		if err != nil || len(res.Decisions) == 0 {
			t.Fatalf("run: %v, %d decisions", err, len(res.Decisions))
		}
	}
	if n := testing.AllocsPerRun(50, run); n > 33 {
		t.Errorf("RunPolicy: %v allocs per run, budget 33", n)
	}
	if n := bytesPerRun(50, run); n > 19_000 {
		t.Errorf("RunPolicy: %d bytes per run, budget 19 000", n)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: what one call of f
// allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
