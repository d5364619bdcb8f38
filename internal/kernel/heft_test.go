package kernel_test

// Classic static HEFT (Topcuoglu, Hariri & Wu, IEEE TPDS 2002) on the
// kernel: the published upward ranks and schedule of the sample DAG, and
// validity on random workloads.

import (
	"fmt"
	"math"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

// classicRanks are the published upward ranks of the Topcuoglu sample DAG
// over its three resources (HEFT paper, Table 3 / Fig. 2).
var classicRanks = map[string]float64{
	"n1": 108.000, "n2": 77.000, "n3": 80.000, "n4": 80.000, "n5": 69.000,
	"n6": 63.333, "n7": 42.667, "n8": 35.667, "n9": 44.333, "n10": 14.667,
}

func sample3() (*dag.Graph, cost.Estimator, []grid.Resource) {
	g := workload.SampleDAG()
	est := cost.Exact(workload.SampleTable())
	rs := grid.StaticPool(3).Initial()
	return g, est, rs
}

func TestRankUMatchesPublishedValues(t *testing.T) {
	g, est, rs := sample3()
	ranks, _, err := kernel.New(g, est).Ranks(rs)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range classicRanks {
		got := ranks[g.JobByName(name)]
		if math.Abs(got-want) > 0.01 {
			t.Errorf("ranku(%s) = %.3f, want %.3f", name, got, want)
		}
	}
}

func TestOrderIsNonincreasingAndTopological(t *testing.T) {
	g, est, rs := sample3()
	ranks, _, err := kernel.New(g, est).Ranks(rs)
	if err != nil {
		t.Fatal(err)
	}
	order := kernel.Order(ranks)
	if len(order) != g.Len() {
		t.Fatalf("order covers %d of %d jobs", len(order), g.Len())
	}
	pos := make(map[dag.JobID]int)
	for i, j := range order {
		if i > 0 && ranks[j] > ranks[order[i-1]] {
			t.Fatalf("ranks increase at position %d", i)
		}
		pos[j] = i
	}
	for _, j := range g.Jobs() {
		for _, e := range g.Succs(j.ID) {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("rank order violates precedence (%d before %d)", e.To, e.From)
			}
		}
	}
}

func TestScheduleClassicMakespan80(t *testing.T) {
	g, est, rs := sample3()
	s, err := kernel.New(g, est).Static(rs, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 80 {
		t.Fatalf("makespan = %g, want the published 80\n%s", s.Makespan(), s)
	}
	// The published HEFT schedule, job by job (Topcuoglu Fig. 3a).
	want := map[string]schedule.Assignment{
		"n1":  {Resource: 2, Start: 0, Finish: 9},
		"n3":  {Resource: 2, Start: 9, Finish: 28},
		"n4":  {Resource: 1, Start: 18, Finish: 26},
		"n2":  {Resource: 0, Start: 27, Finish: 40},
		"n5":  {Resource: 2, Start: 28, Finish: 38},
		"n6":  {Resource: 1, Start: 26, Finish: 42},
		"n9":  {Resource: 1, Start: 56, Finish: 68},
		"n7":  {Resource: 2, Start: 38, Finish: 49},
		"n8":  {Resource: 0, Start: 57, Finish: 62},
		"n10": {Resource: 1, Start: 73, Finish: 80},
	}
	for name, w := range want {
		a := s.MustGet(g.JobByName(name))
		if a.Resource != w.Resource || a.Start != w.Start || a.Finish != w.Finish {
			t.Errorf("%s: got r%d [%g,%g), want r%d [%g,%g)",
				name, a.Resource+1, a.Start, a.Finish, w.Resource+1, w.Start, w.Finish)
		}
	}
}

func TestScheduleIsValid(t *testing.T) {
	g, est, rs := sample3()
	s, err := kernel.New(g, est).Static(rs, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Validate(g, schedule.ValidateOptions{
		Comp: est, Comm: est, Pool: grid.StaticPool(3),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScheduleValidOnRandomDAGs is the property test: on arbitrary
// generated workloads, HEFT schedules are complete, overlap-free,
// precedence-respecting and duration-exact.
func TestScheduleValidOnRandomDAGs(t *testing.T) {
	root := rng.New(0xBEEF)
	for i := 0; i < 40; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		p := workload.RandomParams{
			Jobs:      5 + r.IntN(60),
			CCR:       []float64{0.1, 1, 10}[r.IntN(3)],
			OutDegree: []float64{0.1, 0.3, 1}[r.IntN(3)],
			Beta:      []float64{0, 0.5, 1}[r.IntN(3)],
		}
		g, err := workload.RandomDAG(p, r)
		if err != nil {
			t.Fatal(err)
		}
		nRes := 2 + r.IntN(10)
		table, err := workload.SampleCosts(g, nRes, p.Beta, 100, workload.PerJob, r)
		if err != nil {
			t.Fatal(err)
		}
		pool := grid.StaticPool(nRes)
		for _, insertion := range []bool{true, false} {
			s, err := kernel.New(g, cost.Exact(table)).Static(pool.Initial(), kernel.Options{NoInsertion: !insertion})
			if err != nil {
				t.Fatal(err)
			}
			err = s.Validate(g, schedule.ValidateOptions{Comp: table, Comm: table, Pool: pool})
			if err != nil {
				t.Fatalf("case %d insertion=%v: %v\n%s", i, insertion, err, s)
			}
		}
	}
}

// TestInsertionUsuallyNoWorse checks the ablation claim: on the same inputs,
// insertion-based HEFT produces a makespan no worse than append-only HEFT
// in the large majority of cases; here we assert the aggregate.
func TestInsertionUsuallyNoWorse(t *testing.T) {
	root := rng.New(0xD00D)
	worse, total := 0, 0
	for i := 0; i < 60; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		g, err := workload.RandomDAG(workload.RandomParams{
			Jobs: 20 + r.IntN(40), CCR: 1, OutDegree: 0.3, Beta: 0.5,
		}, r)
		if err != nil {
			t.Fatal(err)
		}
		table, err := workload.SampleCosts(g, 5, 0.5, 100, workload.PerJob, r)
		if err != nil {
			t.Fatal(err)
		}
		rs := grid.StaticPool(5).Initial()
		ins, err := kernel.New(g, cost.Exact(table)).Static(rs, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		app, err := kernel.New(g, cost.Exact(table)).Static(rs, kernel.Options{NoInsertion: true})
		if err != nil {
			t.Fatal(err)
		}
		total++
		if ins.Makespan() > app.Makespan()+1e-9 {
			worse++
		}
	}
	if worse > total/5 {
		t.Fatalf("insertion worse than append in %d/%d cases", worse, total)
	}
}

func TestEmptyResourceSet(t *testing.T) {
	g, est, _ := sample3()
	if _, err := kernel.New(g, est).Static(nil, kernel.Options{}); err == nil {
		t.Fatal("expected error for empty resource set")
	}
	if _, _, err := kernel.New(g, est).Ranks(nil); err == nil {
		t.Fatal("expected error for empty resource set")
	}
}

func TestPlaceJobRequiresScheduledPreds(t *testing.T) {
	g, est, rs := sample3()
	s := schedule.New()
	// n10's predecessors are not scheduled.
	if _, err := placeJob(g, est, rs, s, g.JobByName("n10"), 0, true); err == nil {
		t.Fatal("expected error placing a job before its predecessors")
	}
}

func TestPlaceJobHonoursFloor(t *testing.T) {
	g, est, rs := sample3()
	s := schedule.New()
	a, err := placeJob(g, est, rs, s, g.JobByName("n1"), 42, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Start < 42 {
		t.Fatalf("start %g below floor 42", a.Start)
	}
}

func TestSingleResourceSerialises(t *testing.T) {
	g, est, _ := sample3()
	rs := grid.StaticPool(1).Initial()
	s, err := kernel.New(g, est).Static(rs, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// On one resource the makespan is the sum of costs on r1.
	sum := 0.0
	for _, j := range g.Jobs() {
		sum += est.Comp(j.ID, 0)
	}
	if math.Abs(s.Makespan()-sum) > 1e-9 {
		t.Fatalf("single-resource makespan %g, want serial sum %g", s.Makespan(), sum)
	}
}
