package kernel_test

// AHEFT's rescheduling semantics on the dense path: the §3.4 identity
// with HEFT at clock 0, the snapshot's job classification, Eq. 1's four
// cases, the Fig. 5 worked example by brute force, and properties of
// mid-execution reschedules over random workloads.

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

func sampleSetup(t *testing.T) (*dag.Graph, cost.Estimator, *grid.Pool) {
	t.Helper()
	sc := workload.SampleScenario()
	return sc.Graph, sc.Estimator(), sc.Pool
}

// staticPlan is the classic HEFT schedule of g over rs.
func staticPlan(t testing.TB, g *dag.Graph, est cost.Estimator, rs []grid.Resource, opts kernel.Options) *schedule.Schedule {
	t.Helper()
	s, err := kernel.New(g, est).Static(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// snapshot is a fresh kernel's dense snapshot of s0 at clock.
func snapshot(g *dag.Graph, est cost.Estimator, s0 *schedule.Schedule, clock float64, opts kernel.SnapshotOptions) (*kernel.Kernel, *kernel.State) {
	k := kernel.New(g, est)
	st := k.NewState(0)
	st.Snapshot(s0, clock, opts)
	return k, st
}

// TestInitialRescheduleEqualsHEFT verifies §3.4's identity: with clock 0
// and no history, AHEFT's schedule(S0,P,H) is exactly HEFT.
func TestInitialRescheduleEqualsHEFT(t *testing.T) {
	g, est, pool := sampleSetup(t)
	rs := pool.Initial()
	want := staticPlan(t, g, est, rs, kernel.Options{})
	k := kernel.New(g, est)
	got, err := k.Reschedule(rs, k.NewState(0), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range g.Jobs() {
		if got.MustGet(j.ID) != want.MustGet(j.ID) {
			t.Fatalf("job %s: AHEFT initial %+v != HEFT %+v",
				j.Name, got.MustGet(j.ID), want.MustGet(j.ID))
		}
	}
}

// TestInitialRescheduleEqualsHEFTRandom extends the identity over random
// workloads and both placement policies.
func TestInitialRescheduleEqualsHEFTRandom(t *testing.T) {
	root := rng.New(0xF00)
	for i := 0; i < 25; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		g, err := workload.RandomDAG(workload.RandomParams{
			Jobs: 5 + r.IntN(50), CCR: 2, OutDegree: 0.3, Beta: 0.5,
		}, r)
		if err != nil {
			t.Fatal(err)
		}
		table, err := workload.SampleCosts(g, 4, 0.5, 100, workload.PerJob, r)
		if err != nil {
			t.Fatal(err)
		}
		rs := grid.StaticPool(4).Initial()
		for _, noins := range []bool{false, true} {
			want := staticPlan(t, g, cost.Exact(table), rs, kernel.Options{NoInsertion: noins})
			k := kernel.New(g, cost.Exact(table))
			got, err := k.Reschedule(rs, k.NewState(0), kernel.Options{NoInsertion: noins})
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan() != want.Makespan() {
				t.Fatalf("case %d noins=%v: AHEFT initial makespan %g != HEFT %g",
					i, noins, got.Makespan(), want.Makespan())
			}
		}
	}
}

func TestSnapshotClassifiesJobs(t *testing.T) {
	g, est, pool := sampleSetup(t)
	s0 := staticPlan(t, g, est, pool.Initial(), kernel.Options{})
	_, st := snapshot(g, est, s0, 15, kernel.SnapshotOptions{})
	if err := checkState(g, st, s0); err != nil {
		t.Fatal(err)
	}
	if st.FinishedCount() != 1 {
		t.Fatalf("finished = %d, want 1 (n1)", st.FinishedCount())
	}
	if !st.Finished(g.JobByName("n1")) {
		t.Fatal("n1 should be finished at t=15")
	}
	pinned := 0
	for _, j := range g.Jobs() {
		if st.Pinned(j.ID) {
			pinned++
		}
	}
	if pinned != 1 {
		t.Fatalf("pinned = %d, want 1 (running n3)", pinned)
	}
	if !st.Pinned(g.JobByName("n3")) {
		t.Fatal("n3 should be pinned at t=15")
	}
	if st.Unfinished() != 8 {
		t.Fatalf("unfinished = %d, want 8", st.Unfinished())
	}
	if p := float64(st.FinishedCount()) / float64(g.Len()); p != 0.1 {
		t.Fatalf("progress = %g, want 0.1", p)
	}
}

func TestSnapshotRestartRunning(t *testing.T) {
	g, est, pool := sampleSetup(t)
	s0 := staticPlan(t, g, est, pool.Initial(), kernel.Options{})
	_, st := snapshot(g, est, s0, 15, kernel.SnapshotOptions{RestartRunning: true})
	for _, j := range g.Jobs() {
		if st.Pinned(j.ID) {
			t.Fatalf("restart policy should pin nothing, got %s", j.Name)
		}
	}
	if st.Unfinished() != 9 {
		t.Fatalf("unfinished = %d, want 9", st.Unfinished())
	}
}

func TestSnapshotBoundaryExactFinish(t *testing.T) {
	g, est, pool := sampleSetup(t)
	s0 := staticPlan(t, g, est, pool.Initial(), kernel.Options{})
	// n1 finishes exactly at 9: it must count as finished at clock 9, and
	// n3 (starting exactly at 9) must not be pinned.
	_, st := snapshot(g, est, s0, 9, kernel.SnapshotOptions{})
	if !st.Finished(g.JobByName("n1")) {
		t.Fatal("job finishing exactly at clock must be finished")
	}
	if st.Pinned(g.JobByName("n3")) {
		t.Fatal("job starting exactly at clock must be reschedulable, not pinned")
	}
}

func TestFEACases(t *testing.T) {
	g, est, pool := sampleSetup(t)
	s0 := staticPlan(t, g, est, pool.Initial(), kernel.Options{})
	st := refSnapshot(g, s0, 15, kernel.SnapshotOptions{})
	s1 := schedule.New()
	n1, n2 := g.JobByName("n1"), g.JobByName("n2")
	edge := dag.Edge{From: n1, To: n2, Data: 18}

	// Case 1: n1 finished on r3 (ID 2) — available at AFT 9.
	if v := refFEA(st, s1, edge, 2); v != 9 {
		t.Fatalf("case 1: FEA = %g, want 9", v)
	}
	// In-flight credit: the file is already moving to ID 0, ETA 27.
	if v := refFEA(st, s1, edge, 0); v != 27 {
		t.Fatalf("in-flight: FEA = %g, want 27", v)
	}
	// Case 2: never shipped toward ID 3 — fresh transfer from clock 15.
	if v := refFEA(st, s1, edge, 3); v != 15+18 {
		t.Fatalf("case 2: FEA = %g, want 33", v)
	}

	// Case 3 / otherwise: unfinished predecessor placed in s1.
	n4, n9 := g.JobByName("n4"), g.JobByName("n9")
	e49 := dag.Edge{From: n4, To: n9, Data: 23}
	s1.Assign(schedule.Assignment{Job: n4, Resource: 1, Start: 18, Finish: 26})
	if v := refFEA(st, s1, e49, 1); v != 26 {
		t.Fatalf("case 3 (same resource): FEA = %g, want SFT 26", v)
	}
	if v := refFEA(st, s1, e49, 0); v != 26+23 {
		t.Fatalf("otherwise (cross): FEA = %g, want 49", v)
	}
}

func TestFEAPanicsOnUnplacedPredecessor(t *testing.T) {
	g, est, pool := sampleSetup(t)
	s0 := staticPlan(t, g, est, pool.Initial(), kernel.Options{})
	st := refSnapshot(g, s0, 15, kernel.SnapshotOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unplaced unfinished predecessor")
		}
	}()
	n4, n9 := g.JobByName("n4"), g.JobByName("n9")
	refFEA(st, schedule.New(), dag.Edge{From: n4, To: n9, Data: 23}, 0)
}

// TestFig5ExhaustiveOptimal verifies the FEA/EST/EFT model against the
// paper's published worked example by brute force: over all 4^8 forced
// resource assignments for the eight reschedulable jobs at clock 15, the
// best reachable makespan is exactly the paper's 76. This pins down the
// semantics of the snapshot (pinned running job, producer-level output
// availability, clock-floored fresh transfers) independently of the greedy
// placement heuristic. The dense snapshot decides which jobs are free; the
// reference Eq. 1 prices every forced placement.
func TestFig5ExhaustiveOptimal(t *testing.T) {
	sc := workload.SampleScenario()
	g, est := sc.Graph, sc.Estimator()
	s0 := staticPlan(t, g, est, sc.Pool.Initial(), kernel.Options{})
	k, dense := snapshot(g, est, s0, 15, kernel.SnapshotOptions{})
	if err := checkState(g, dense, s0); err != nil {
		t.Fatal(err)
	}
	st := refSnapshot(g, s0, 15, kernel.SnapshotOptions{})
	rs := sc.Pool.AvailableAt(15)
	_, rankOrder, err := k.Ranks(rs)
	if err != nil {
		t.Fatal(err)
	}
	var order []dag.JobID
	for _, j := range rankOrder {
		if dense.Finished(j) || dense.Pinned(j) {
			continue
		}
		order = append(order, j)
	}
	if len(order) != 8 {
		t.Fatalf("reschedulable jobs = %d, want 8 (all but finished n1 and running n3)", len(order))
	}

	total := 1
	for range order {
		total *= len(rs)
	}
	best := 1e18
	for mask := 0; mask < total; mask++ {
		s1 := schedule.New()
		for j, f := range st.Finished {
			s1.Assign(schedule.Assignment{Job: j, Resource: f.Resource, Start: f.AST, Finish: f.AFT})
		}
		for _, a := range st.Pinned {
			s1.Assign(a)
		}
		m := mask
		for _, job := range order {
			r := rs[m%len(rs)]
			m /= len(rs)
			ready := st.Clock
			for _, e := range g.Preds(job) {
				if v := refFEA(st, s1, e, r.ID); v > ready {
					ready = v
				}
			}
			w := est.Comp(job, r.ID)
			start := earliestStart(s1, r.ID, ready, w, true)
			s1.Assign(schedule.Assignment{Job: job, Resource: r.ID, Start: start, Finish: start + w})
		}
		if mk := s1.Makespan(); mk < best {
			best = mk
		}
	}
	if best != 76 {
		t.Fatalf("best reachable reschedule makespan = %g, want the paper's 76", best)
	}
}

// TestRescheduleRespectsClockAndHistory: rescheduled jobs never start
// before the clock, never overlap finished/pinned work, and the schedule
// stays structurally valid.
func TestRescheduleRespectsClockAndHistory(t *testing.T) {
	root := rng.New(0xC0FFEE)
	for i := 0; i < 30; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		gp := workload.GridParams{
			InitialResources: 2 + r.IntN(6),
			ChangeInterval:   200,
			ChangePct:        0.3,
			MaxEvents:        3,
		}
		sc, err := workload.RandomScenario(workload.RandomParams{
			Jobs: 10 + r.IntN(40), CCR: []float64{0.5, 5}[r.IntN(2)], OutDegree: 0.3, Beta: 0.5,
		}, gp, r)
		if err != nil {
			t.Fatal(err)
		}
		est := sc.Estimator()
		s0 := staticPlan(t, sc.Graph, est, sc.Pool.Initial(), kernel.Options{})
		clock := s0.Makespan() * r.Uniform(0.1, 0.9)
		k, st := snapshot(sc.Graph, est, s0, clock, kernel.SnapshotOptions{})
		if err := checkState(sc.Graph, st, s0); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		s1, err := k.Reschedule(sc.Pool.AvailableAt(clock), st, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Complete and overlap-free.
		if err := s1.Validate(sc.Graph, schedule.ValidateOptions{Pool: sc.Pool}); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, j := range sc.Graph.Jobs() {
			a := s1.MustGet(j.ID)
			if fr, ast, aft := st.FinishedOutcome(j.ID); fr != grid.NoResource {
				if a.Resource != fr || a.Start != ast || a.Finish != aft {
					t.Fatalf("case %d: finished job %s moved to %+v", i, j.Name, a)
				}
				continue
			}
			if st.Pinned(j.ID) {
				if a != s0.MustGet(j.ID) {
					t.Fatalf("case %d: pinned job %s moved to %+v", i, j.Name, a)
				}
				continue
			}
			if a.Start < clock-1e-9 {
				t.Fatalf("case %d: rescheduled job %s starts %g before clock %g",
					i, j.Name, a.Start, clock)
			}
		}
	}
}

func TestRescheduleEmptyResourceSet(t *testing.T) {
	g, est, _ := sampleSetup(t)
	k := kernel.New(g, est)
	if _, err := k.Reschedule(nil, k.NewState(0), kernel.Options{}); err == nil {
		t.Fatal("expected error")
	}
}

// TestTieWindowNeverWorse: order exploration returns the best of the
// candidates, so it can only improve on the greedy base schedule.
func TestTieWindowNeverWorse(t *testing.T) {
	root := rng.New(0x7E7E)
	for i := 0; i < 20; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		g, err := workload.RandomDAG(workload.RandomParams{
			Jobs: 10 + r.IntN(30), CCR: 2, OutDegree: 0.3, Beta: 1,
		}, r)
		if err != nil {
			t.Fatal(err)
		}
		table, err := workload.SampleCosts(g, 4, 1, 100, workload.PerJob, r)
		if err != nil {
			t.Fatal(err)
		}
		rs := grid.StaticPool(4).Initial()
		k := kernel.New(g, cost.Exact(table))
		base, err := k.Reschedule(rs, k.NewState(0), kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		explored, err := k.Reschedule(rs, k.NewState(0), kernel.Options{TieWindow: 0.08})
		if err != nil {
			t.Fatal(err)
		}
		if explored.Makespan() > base.Makespan()+1e-9 {
			t.Fatalf("case %d: tie-window made things worse: %g > %g",
				i, explored.Makespan(), base.Makespan())
		}
	}
}

// quickRandomScenario derives a small paper-style random scenario
// deterministically from a quick seed.
func quickRandomScenario(seed uint64) (*workload.Scenario, error) {
	r := rng.New(seed)
	return workload.RandomScenario(workload.RandomParams{
		Jobs:      8 + r.IntN(25),
		CCR:       []float64{0.3, 1, 4}[r.IntN(3)],
		OutDegree: 0.3,
		Beta:      []float64{0, 0.5, 1}[r.IntN(3)],
		Alpha:     []float64{0.5, 1, 2}[r.IntN(3)],
	}, workload.GridParams{
		InitialResources: 2 + r.IntN(5),
		ChangeInterval:   150 + 100*float64(r.IntN(4)),
		ChangePct:        0.3,
		MaxEvents:        3,
	}, r)
}

// quickReschedule plans sc statically, snapshots the plan at the clock
// clockOf picks from its makespan and reschedules over the pool available then,
// returning the plan, the dense and reference snapshots and the
// reschedule.
func quickReschedule(seed uint64, clockOf func(makespan float64) float64) (sc *workload.Scenario, s0 *schedule.Schedule, st *kernel.State, ref *execState, s1 *schedule.Schedule, err error) {
	if sc, err = quickRandomScenario(seed); err != nil {
		return
	}
	est := sc.Estimator()
	k := kernel.New(sc.Graph, est)
	if s0, err = k.Static(sc.Pool.Initial(), kernel.Options{}); err != nil {
		return
	}
	clock := clockOf(s0.Makespan())
	st = k.NewState(0)
	st.Snapshot(s0, clock, kernel.SnapshotOptions{})
	ref = refSnapshot(sc.Graph, s0, clock, kernel.SnapshotOptions{})
	s1, err = k.Reschedule(sc.Pool.AvailableAt(clock), st, kernel.Options{})
	return
}

// TestQuickRescheduleInvariants: for arbitrary scenarios and snapshot
// clocks, a reschedule (a) covers every job, (b) never overlaps work on a
// resource, (c) never moves finished or pinned jobs, (d) never starts a
// rescheduled job before the clock or before its inputs can be there, and
// (e) yields a snapshot that passes its own validator.
func TestQuickRescheduleInvariants(t *testing.T) {
	f := func(seed uint64, clockFrac float64) bool {
		clockFrac = math.Abs(clockFrac)
		if math.IsNaN(clockFrac) || math.IsInf(clockFrac, 0) {
			clockFrac = 0.5
		}
		clockFrac = math.Mod(clockFrac, 1)
		sc, s0, st, ref, s1, err := quickReschedule(seed, func(mk float64) float64 { return clockFrac * mk })
		if err != nil {
			return false
		}
		if checkState(sc.Graph, st, s0) != nil {
			return false
		}
		if s1.Validate(sc.Graph, schedule.ValidateOptions{Pool: sc.Pool}) != nil {
			return false
		}
		for _, j := range sc.Graph.Jobs() {
			a := s1.MustGet(j.ID)
			if fr, ast, aft := st.FinishedOutcome(j.ID); fr != grid.NoResource {
				if a.Resource != fr || a.Start != ast || a.Finish != aft {
					return false
				}
				continue
			}
			if st.Pinned(j.ID) {
				if a != s0.MustGet(j.ID) {
					return false
				}
				continue
			}
			if a.Start < st.Clock-1e-9 {
				return false
			}
			// Input feasibility per FEA.
			for _, e := range sc.Graph.Preds(j.ID) {
				if a.Start+1e-9 < refFEA(ref, s1, e, a.Resource) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRescheduleDurationExact: every rescheduled job occupies exactly
// its estimated duration — no silent stretching or shrinking.
func TestQuickRescheduleDurationExact(t *testing.T) {
	f := func(seed uint64) bool {
		sc, _, _, _, s1, err := quickReschedule(seed, func(mk float64) float64 { return mk / 2 })
		if err != nil {
			return false
		}
		for _, j := range sc.Graph.Jobs() {
			a := s1.MustGet(j.ID)
			want := sc.Estimator().Comp(j.ID, a.Resource)
			if diff := a.Duration() - want; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFEANeverBeforeProducer: FEA can never report a file available
// before its producer finishes, for any resource.
func TestQuickFEANeverBeforeProducer(t *testing.T) {
	f := func(seed uint64) bool {
		sc, _, st, ref, s1, err := quickReschedule(seed, func(mk float64) float64 { return mk / 3 })
		if err != nil {
			return false
		}
		for _, j := range sc.Graph.Jobs() {
			for _, e := range sc.Graph.Preds(j.ID) {
				var producerFinish float64
				if fr, _, aft := st.FinishedOutcome(e.From); fr != grid.NoResource {
					producerFinish = aft
				} else {
					producerFinish = s1.MustGet(e.From).Finish
				}
				for _, r := range sc.Pool.AvailableAt(st.Clock) {
					if refFEA(ref, s1, e, r.ID) < producerFinish-1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
