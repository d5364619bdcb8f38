package planner

import (
	"context"
	"math"
	"testing"

	"aheft/internal/grid"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

func TestWhatIfAddResource(t *testing.T) {
	sc := workload.SampleScenario()
	g, est := sc.Graph, sc.Estimator()
	s0, err := RunPolicy(context.Background(), g, est, sc.Pool, policy.MustGet("heft"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r4, _ := sc.Pool.Resource(3)
	ans, err := WhatIf(g, est, s0.Schedule, sc.Pool.AvailableAt(0), WhatIfQuery{
		Clock: 15,
		Add:   []grid.Resource{r4},
	}, RunOptions{TieWindow: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if ans.CurrentMakespan != 80 || ans.NewMakespan != 76 || !ans.WouldAdopt {
		t.Fatalf("WhatIf(add r4 at 15) = %+v, want 80 → 76, adopt", ans)
	}
	if ans.Delta() != -4 {
		t.Fatalf("Delta = %g, want -4", ans.Delta())
	}
}

func TestWhatIfRemoveResource(t *testing.T) {
	sc := workload.SampleScenario()
	g, est := sc.Graph, sc.Estimator()
	s0, err := RunPolicy(context.Background(), g, est, sc.Pool, policy.MustGet("heft"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Removing r2 (ID 1) mid-run: the plan must survive on fewer
	// resources, almost surely for a longer makespan, never adopted.
	ans, err := WhatIf(g, est, s0.Schedule, sc.Pool.AvailableAt(0), WhatIfQuery{
		Clock:  15,
		Remove: []grid.ID{1},
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.NewMakespan < ans.CurrentMakespan {
		t.Fatalf("removal should not speed things up: %+v", ans)
	}
	if ans.WouldAdopt {
		t.Fatal("removal result must not be 'adopted'")
	}
	// No job may be placed on the removed resource after the clock.
	for _, a := range ans.Schedule.Assignments() {
		if a.Resource == 1 && a.Start >= 15 {
			t.Fatalf("job %d placed on removed r2 at %g", a.Job, a.Start)
		}
	}
}

func TestWhatIfRemoveRunningJobsResource(t *testing.T) {
	sc := workload.SampleScenario()
	g, est := sc.Graph, sc.Estimator()
	s0, err := RunPolicy(context.Background(), g, est, sc.Pool, policy.MustGet("heft"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// At t=15, n3 runs on r3 (ID 2). Removing r3 must restart n3
	// elsewhere.
	ans, err := WhatIf(g, est, s0.Schedule, sc.Pool.AvailableAt(0), WhatIfQuery{
		Clock:  15,
		Remove: []grid.ID{2},
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n3 := g.JobByName("n3")
	a := ans.Schedule.MustGet(n3)
	if a.Resource == 2 {
		t.Fatalf("n3 still on removed r3: %+v", a)
	}
	if a.Start < 15 {
		t.Fatalf("restarted n3 starts at %g before clock", a.Start)
	}
}

func TestWhatIfErrors(t *testing.T) {
	sc := workload.SampleScenario()
	g, est := sc.Graph, sc.Estimator()
	s0, _ := RunPolicy(context.Background(), g, est, sc.Pool, policy.MustGet("heft"), RunOptions{})
	avail := sc.Pool.AvailableAt(0)
	if _, err := WhatIf(g, est, nil, avail, WhatIfQuery{Clock: 0}, RunOptions{}); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if _, err := WhatIf(g, est, s0.Schedule, avail, WhatIfQuery{
		Clock:  0,
		Remove: []grid.ID{0, 1, 2},
	}, RunOptions{}); err == nil {
		t.Fatal("empty hypothetical pool accepted")
	}
}

// TestWhatIfMonotoneInAdditions: adding more resources never predicts a
// worse makespan than adding fewer (with the adoption comparison done
// against the same baseline).
func TestWhatIfMonotoneInAdditions(t *testing.T) {
	r := rng.New(0x99)
	sc, err := workload.BlastScenario(workload.AppParams{
		Parallelism: 40, CCR: 0.5, Beta: 0.5,
	}, workload.GridParams{InitialResources: 6, ChangeInterval: 1e9, ChangePct: 1, MaxEvents: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	g, est := sc.Graph, sc.Estimator()
	s0, err := RunPolicy(context.Background(), g, est, sc.Pool, policy.MustGet("heft"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clock := s0.Makespan / 4
	avail := sc.Pool.AvailableAt(clock)
	var future []grid.Resource
	for _, a := range sc.Pool.Arrivals() {
		if a.Time > clock {
			future = append(future, a.Resource)
		}
	}
	prev := math.Inf(1)
	for _, n := range []int{1, 2, 4} {
		if n > len(future) {
			break
		}
		ans, err := WhatIf(g, est, s0.Schedule, avail, WhatIfQuery{Clock: clock, Add: future[:n]}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Greedy placement is not strictly monotone in theory, but over a
		// superset of resources the EFT-minimising loop can only pick
		// better or equal slots per job given identical orderings; allow
		// a tiny tolerance for rank-order changes.
		if ans.NewMakespan > prev*1.05 {
			t.Fatalf("adding %d resources predicted %g, much worse than %g with fewer",
				n, ans.NewMakespan, prev)
		}
		prev = ans.NewMakespan
	}
}
