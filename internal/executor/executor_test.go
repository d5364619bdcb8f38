package executor

import (
	"fmt"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/sim"
	"aheft/internal/workload"
)

func sampleEngine(t *testing.T, handler func(Event)) (*Engine, *dag.Graph, cost.Estimator) {
	t.Helper()
	sc := workload.SampleScenario()
	est := sc.Estimator()
	s0, err := kernel.New(sc.Graph, est).Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(sim.New(), sc.Graph, est, sc.Pool, s0, handler)
	if err != nil {
		t.Fatal(err)
	}
	return e, sc.Graph, est
}

func TestEnactSampleSchedule(t *testing.T) {
	e, g, _ := sampleEngine(t, nil)
	records, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != g.Len() {
		t.Fatalf("%d records for %d jobs", len(records), g.Len())
	}
	if e.Makespan() != 80 {
		t.Fatalf("makespan = %g, want 80", e.Makespan())
	}
	// Records are in finish order.
	for i := 1; i < len(records); i++ {
		if records[i].Finish < records[i-1].Finish {
			t.Fatal("records out of finish order")
		}
	}
}

func TestEventsEmitted(t *testing.T) {
	var finishes, arrivals int
	handler := func(ev Event) {
		if ev.Finished != dag.NoJob {
			finishes++
			if ev.ActualDuration <= 0 {
				t.Errorf("finish event without duration: %+v", ev)
			}
		}
		if len(ev.Arrived) > 0 {
			arrivals++
		}
	}
	e, g, _ := sampleEngine(t, handler)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finishes != g.Len() {
		t.Fatalf("finish events = %d, want %d", finishes, g.Len())
	}
	// r4 arrives at t=15, before the DAG completes at 80.
	if arrivals != 1 {
		t.Fatalf("arrival events = %d, want 1", arrivals)
	}
}

func TestArrivalEventsAfterCompletionSuppressed(t *testing.T) {
	sc := workload.SampleScenario()
	est := sc.Estimator()
	// Move r4's arrival after the workflow completes.
	pool := grid.MustPool([]grid.Arrival{
		{Time: 0, Resource: grid.Resource{ID: 0, Name: "r1"}},
		{Time: 0, Resource: grid.Resource{ID: 1, Name: "r2"}},
		{Time: 0, Resource: grid.Resource{ID: 2, Name: "r3"}},
		{Time: 500, Resource: grid.Resource{ID: 3, Name: "r4"}},
	})
	s0, err := kernel.New(sc.Graph, est).Static(pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := 0
	e, err := New(sim.New(), sc.Graph, est, pool, s0, func(ev Event) {
		if len(ev.Arrived) > 0 {
			arrivals++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals != 0 {
		t.Fatalf("arrival after completion still delivered (%d)", arrivals)
	}
}

func TestResubmitRejectsIncompleteSchedule(t *testing.T) {
	e, _, _ := sampleEngine(t, nil)
	if err := e.Resubmit(schedule.New()); err == nil {
		t.Fatal("expected error for incomplete schedule")
	}
}

func TestNewRejectsNilArguments(t *testing.T) {
	sc := workload.SampleScenario()
	est := sc.Estimator()
	s0, _ := kernel.New(sc.Graph, est).Static(sc.Pool.Initial(), kernel.Options{})
	if _, err := New(nil, sc.Graph, est, sc.Pool, s0, nil); err == nil {
		t.Fatal("nil simulator accepted")
	}
	if _, err := New(sim.New(), sc.Graph, est, sc.Pool, nil, nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A schedule placing a job on a resource that never joins the pool can
	// never start it; the engine must report the deadlock, not hang.
	g := dag.New("x")
	a := g.AddJob("a", "")
	g.MustValidate()
	tb := cost.MustTable([][]float64{{10, 10}})
	pool := grid.StaticPool(1) // only resource 0 exists
	s := schedule.New()
	s.Assign(schedule.Assignment{Job: a, Resource: 1, Start: 0, Finish: 10})
	e, err := New(sim.New(), g, cost.Exact(tb), pool, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestEnactmentMatchesPlanRandom: property test — enacting any valid HEFT
// schedule reproduces its planned times exactly under accurate estimates.
func TestEnactmentMatchesPlanRandom(t *testing.T) {
	root := rng.New(0xE0E0)
	for i := 0; i < 30; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		sc, err := workload.RandomScenario(workload.RandomParams{
			Jobs: 5 + r.IntN(50), CCR: []float64{0.3, 3}[r.IntN(2)], OutDegree: 0.3, Beta: 0.8,
		}, workload.GridParams{InitialResources: 2 + r.IntN(6)}, r)
		if err != nil {
			t.Fatal(err)
		}
		est := sc.Estimator()
		s0, err := kernel.New(sc.Graph, est).Static(sc.Pool.Initial(), kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(sim.New(), sc.Graph, est, sc.Pool, s0, nil)
		if err != nil {
			t.Fatal(err)
		}
		records, err := e.Run()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, rec := range records {
			want := s0.MustGet(rec.Job)
			if rec.Start != want.Start || rec.Finish != want.Finish || rec.Resource != want.Resource {
				t.Fatalf("case %d: job %d enacted %+v, planned %+v", i, rec.Job, rec, want)
			}
		}
	}
}

// TestSlowRuntimeDelaysExecution: when actual durations exceed estimates,
// the engine degrades gracefully (no deadlock; everything still runs, just
// later) — the behaviour inaccurate prediction induces.
func TestSlowRuntimeDelaysExecution(t *testing.T) {
	sc := workload.SampleScenario()
	est := sc.Estimator()
	s0, err := kernel.New(sc.Graph, est).Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow := scaledRuntime{base: est, factor: 1.5}
	e, err := New(sim.New(), sc.Graph, slow, sc.Pool, s0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Makespan() <= 80 {
		t.Fatalf("slow runtime should exceed 80, got %g", e.Makespan())
	}
}

type scaledRuntime struct {
	base   cost.Estimator
	factor float64
}

func (s scaledRuntime) Comp(j dag.JobID, r grid.ID) float64 { return s.factor * s.base.Comp(j, r) }
func (s scaledRuntime) Comm(e dag.Edge, a, b grid.ID) float64 {
	return s.base.Comm(e, a, b)
}
