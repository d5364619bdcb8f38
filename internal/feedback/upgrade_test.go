package feedback

import (
	"testing"

	"aheft/internal/history"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/workload"
)

// TestFastPlanUpgrade: the two-speed admission path end to end at the
// tracker level. A tracker built with the greedy FastPlan starts from
// the cheap list-order placement; Reevaluate(TriggerUpgrade) runs the
// full policy pass and adopts on improvement, bumping the generation —
// and a second upgrade finds nothing left to improve.
func TestFastPlanUpgrade(t *testing.T) {
	sc := workload.SampleScenario()
	fast, err := New(Config{
		Graph:    sc.Graph,
		Prior:    sc.Estimator(),
		Pool:     sc.Pool,
		History:  history.New(0),
		Policy:   policy.MustGet("aheft"),
		FastPlan: policy.MustGet("greedy"),
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(Config{
		Graph:   sc.Graph,
		Prior:   sc.Estimator(),
		Pool:    sc.Pool,
		History: history.New(0),
		Policy:  policy.MustGet("aheft"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Generation() != 1 {
		t.Fatalf("fast tracker starts at generation %d", fast.Generation())
	}
	greedyMk := fast.Plan().Makespan()
	heftMk := full.Plan().Makespan()
	if greedyMk < heftMk {
		t.Fatalf("greedy initial plan (%g) beats full HEFT (%g) — scenario no longer exercises the upgrade", greedyMk, heftMk)
	}

	out := fast.Reevaluate(planner.TriggerUpgrade)
	if len(out.Decisions) != 1 {
		t.Fatalf("upgrade recorded %d decisions, want 1", len(out.Decisions))
	}
	d := out.Decisions[0]
	if d.Trigger != planner.TriggerUpgrade {
		t.Fatalf("decision trigger = %v", d.Trigger)
	}
	if greedyMk > heftMk {
		if !out.Rescheduled || !d.Adopted {
			t.Fatalf("upgrade not adopted (greedy %g vs heft %g): %+v", greedyMk, heftMk, d)
		}
		if fast.Generation() != 2 {
			t.Fatalf("generation after upgrade = %d, want 2", fast.Generation())
		}
		if got := fast.Plan().Makespan(); got != heftMk {
			t.Fatalf("upgraded makespan %g, want full-HEFT %g", got, heftMk)
		}
	}

	again := fast.Reevaluate(planner.TriggerUpgrade)
	if again.Rescheduled {
		t.Fatal("second upgrade adopted a plan; the first should have converged")
	}
}

// TestFastPlanRejectsJustInTime: a just-in-time dispatch simulation
// cannot serve as the fast plan — its "schedule" is not enactable.
func TestFastPlanRejectsJustInTime(t *testing.T) {
	sc := workload.SampleScenario()
	_, err := New(Config{
		Graph:    sc.Graph,
		Prior:    sc.Estimator(),
		Pool:     sc.Pool,
		History:  history.New(0),
		Policy:   policy.MustGet("aheft"),
		FastPlan: policy.MustGet("minmin"),
	})
	if err == nil {
		t.Fatal("just-in-time fast plan accepted")
	}
}

// TestParseTriggerUpgrade: the wire round trip covers the new trigger.
func TestParseTriggerUpgrade(t *testing.T) {
	tr, err := ParseTrigger("upgrade")
	if err != nil || tr != planner.TriggerUpgrade {
		t.Fatalf("ParseTrigger(upgrade) = (%v, %v)", tr, err)
	}
	if s := planner.TriggerUpgrade.String(); s != "upgrade" {
		t.Fatalf("TriggerUpgrade.String() = %q", s)
	}
}
