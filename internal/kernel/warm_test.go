package kernel_test

// A kernel and its state live as long as their workflow: the rank cache,
// the placement scratch, the timelines and the ledger are all reused from
// one replan to the next. These tests drive one such pair through every
// kind of event the daemon reports — finish early or late, pin drift,
// resource join and leave, a foreign reservation released, estimates
// drifting, a file-carrying DAG — and hold each plan, assignment for
// assignment, to what a kernel built for the occasion gives for the same
// state: nothing a pass leaves behind may reach the next one.

import (
	"fmt"
	"maps"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

// advance progresses st to clock against the currently adopted schedule s,
// the way feedback.Tracker maintains its state between evaluations: jobs
// whose actual finish time has passed are recorded finished with
// ship-on-finish transfers toward every scheduled consumer, and
// started-but-unfinished jobs are re-pinned. scaleOf perturbs actual
// runtimes (actual duration = scale × scheduled duration, anchored at the
// currently scheduled start); it applies to pins too, so an overrun
// extends the pinned interval exactly like a variance report does.
// Applying the same advance calls to two states keeps them bit-identical,
// which warmRun relies on.
func advance(sc *workload.Scenario, st *kernel.State, s *schedule.Schedule, clock float64, scaleOf map[dag.JobID]float64) {
	est := sc.Estimator()
	g := sc.Graph
	st.Clock = clock
	st.ClearPinned()
	for _, j := range g.Jobs() {
		if st.Finished(j.ID) {
			continue
		}
		a, ok := s.Get(j.ID)
		if !ok {
			continue
		}
		fin := a.Finish
		if f, ok := scaleOf[j.ID]; ok {
			fin = a.Start + f*(a.Finish-a.Start)
		}
		switch {
		case a.Start < clock && fin <= clock:
			st.Finish(j.ID, a.Resource, a.Start, fin)
			for _, e := range g.Succs(j.ID) {
				st.SetTransfer(j.ID, e.To, a.Resource, fin)
				if sa, ok := s.Get(e.To); ok {
					st.SetTransfer(j.ID, e.To, sa.Resource, fin+est.Comm(e, a.Resource, sa.Resource))
				}
			}
		case a.Start < clock:
			st.Pin(schedule.Assignment{Job: j.ID, Resource: a.Resource, Start: a.Start, Finish: fin})
		}
	}
}

// requireSameSchedule asserts bit-identical assignments for every job.
func requireSameSchedule(t testing.TB, g *dag.Graph, got, want *schedule.Schedule, ctx string) {
	t.Helper()
	for _, j := range g.Jobs() {
		if got.MustGet(j.ID) != want.MustGet(j.ID) {
			t.Fatalf("%s: job %s diverged: warm %+v, fresh %+v",
				ctx, j.Name, got.MustGet(j.ID), want.MustGet(j.ID))
		}
	}
}

// taxonomyScenario is the fixed mid-size layered workflow the taxonomy
// cases share.
func taxonomyScenario(t *testing.T) *workload.Scenario {
	t.Helper()
	sc, err := workload.LayeredScenario(workload.LayeredParams{
		Jobs: 240, Width: 8, FanIn: 3, CCR: 1, Beta: 0.5,
	}, workload.GridParams{
		InitialResources: 6, ChangeInterval: 1e9, ChangePct: 0.25, MaxEvents: 1,
	}, rng.New(0xDE17A))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// pickUnstarted returns the first job of s scheduled strictly inside
// (after, upTo] — not yet started at `after`, finished by `upTo`.
func pickUnstarted(t *testing.T, g *dag.Graph, s *schedule.Schedule, after, upTo float64) schedule.Assignment {
	t.Helper()
	for _, j := range g.Jobs() {
		a, ok := s.Get(j.ID)
		if ok && a.Start > after && a.Finish <= upTo {
			return a
		}
	}
	t.Fatalf("no job scheduled inside (%g, %g]", after, upTo)
	return schedule.Assignment{}
}

// progress is one recorded advance call.
type progress struct {
	plan    *schedule.Schedule
	clock   float64
	scaleOf map[dag.JobID]float64
}

// warmRun is one long-lived kernel and state, with every advance applied to
// the state on record so that a new kernel's new state can be brought to the
// same point.
type warmRun struct {
	t     testing.TB
	sc    *workload.Scenario
	build func() *kernel.Kernel // a new kernel bound to what k is bound to now
	k     *kernel.Kernel
	st    *kernel.State
	log   []progress
	below bool // requirePriced's exception applies
}

// step advances the long-lived state to clock against plan, replans on the
// long-lived kernel, holds the plan to its price, and requires the plan a
// new kernel makes of the replayed state to be the same one.
func (w *warmRun) step(plan *schedule.Schedule, clock float64, scaleOf map[dag.JobID]float64, rs []grid.Resource, opts kernel.Options, ctx string) *schedule.Schedule {
	w.t.Helper()
	w.log = append(w.log, progress{plan, clock, maps.Clone(scaleOf)})
	advance(w.sc, w.st, plan, clock, scaleOf)
	warm, err := w.k.Reschedule(rs, w.st, opts)
	if err != nil {
		w.t.Fatalf("%s: %v", ctx, err)
	}
	requirePriced(w.t, w.k, rs, w.st, warm, w.below, ctx)
	kf := w.build()
	stf := kf.NewState(w.sc.Pool.Size())
	for _, p := range w.log {
		advance(w.sc, stf, p.plan, p.clock, p.scaleOf)
	}
	fresh, err := kf.Reschedule(rs, stf, opts)
	if err != nil {
		w.t.Fatalf("%s: fresh kernel: %v", ctx, err)
	}
	requireSameSchedule(w.t, w.sc.Graph, warm, fresh, ctx)
	return warm
}

// driftingCost is a versioned estimator whose computation costs move from
// version to version by a job-dependent factor, so ranks reorder — what
// history-sharpened estimates do between reports.
type driftingCost struct {
	*cost.Table
	version uint64
}

func (d *driftingCost) Comp(j dag.JobID, r grid.ID) float64 {
	return d.Table.Comp(j, r) * (1 + 0.15*float64((uint64(j)+d.version)%4))
}

func (d *driftingCost) EstimateVersion() uint64 { return d.version }

// TestKernelWarmEqualsFresh: one event of each kind, then a plain step on
// top of it, through one kernel and state; and chains of random runtime
// perturbations over the random scenarios.
func TestKernelWarmEqualsFresh(t *testing.T) {
	// world is what an event may change between two steps.
	type world struct {
		sc    *workload.Scenario
		rs    []grid.Resource
		occ   fixedOccupancy
		drift *driftingCost
		ov    map[dag.JobID]float64
		plan  *schedule.Schedule // adopted at the previous step
		st    *kernel.State
		job   dag.JobID // the job a multi-step event follows
	}
	type testCase struct {
		name  string
		sc    func(t *testing.T) *workload.Scenario
		fracs []float64
		// setup runs before the kernel is built; event before step i ≥ 1,
		// which advances the clock from `from` to `to`.
		setup func(w *world)
		event func(t *testing.T, w *world, step int, from, to float64)
		check func(t *testing.T, w *world)
	}
	finishAt := func(scale func(a schedule.Assignment, to float64) float64) func(*testing.T, *world, int, float64, float64) {
		return func(t *testing.T, w *world, step int, from, to float64) {
			if step == 1 {
				a := pickUnstarted(t, w.sc.Graph, w.plan, from, to)
				w.ov[a.Job] = scale(a, to)
			}
		}
	}
	early := func(schedule.Assignment, float64) float64 { return 0.5 }
	late := func(a schedule.Assignment, to float64) float64 {
		return (a.Finish + 0.49*(to-a.Finish) - a.Start) / (a.Finish - a.Start)
	}
	cases := []testCase{
		{name: "finish-early", event: finishAt(early)},
		{name: "finish-late", event: finishAt(late)},
		{
			// A job starts on time and overruns past the clock, and at the
			// next report is running still: its pinned interval grows twice.
			name: "pin-drift",
			event: func(t *testing.T, w *world, step int, from, to float64) {
				if step == 1 {
					w.job = pickUnstarted(t, w.sc.Graph, w.plan, from, to).Job
				}
				a := w.plan.MustGet(w.job)
				w.ov[w.job] = (to-a.Start)/(a.Finish-a.Start) + 0.5
			},
			check: func(t *testing.T, w *world) {
				if !w.st.Pinned(w.job) {
					t.Fatalf("job %d is not pinned at the last step", w.job)
				}
			},
		},
		{
			name:  "resource-join",
			setup: func(w *world) { w.rs = w.rs[:len(w.rs)-1] },
			event: func(t *testing.T, w *world, step int, from, to float64) { w.rs = w.sc.Pool.Initial() },
		},
		{
			name:  "resource-leave",
			event: func(t *testing.T, w *world, step int, from, to float64) { w.rs = w.sc.Pool.Initial()[:len(w.rs)-1] },
		},
		{
			// Another workflow holds a resource, then releases it from the
			// clock onward: the row opens up and placements flow onto it.
			name:  "foreign-reservation-release",
			setup: func(w *world) { w.occ = fixedOccupancy{w.rs[0].ID: {{Start: 0, Finish: 1e9}}} },
			event: func(t *testing.T, w *world, step int, from, to float64) {
				w.occ[w.rs[0].ID] = []kernel.Busy{{Start: 0, Finish: to}}
			},
		},
		{
			name:  "estimate-drift",
			setup: func(w *world) { w.drift = &driftingCost{Table: w.sc.Table} },
			event: func(t *testing.T, w *world, step int, from, to float64) { w.drift.version++ },
		},
		{
			name:  "file-carrying",
			sc:    func(t *testing.T) *workload.Scenario { return workload.DataScenario(workload.DataParams{Searches: 48}) },
			event: finishAt(late),
		},
	}
	for seed := uint64(0); seed < 20; seed++ {
		r := rng.New(seed ^ 0xDE17A)
		cases = append(cases, testCase{
			name:  fmt.Sprintf("chain/seed-%d", seed),
			sc:    func(t *testing.T) *workload.Scenario { return quickScenario(t, seed) },
			fracs: []float64{0.15, 0.3, 0.45, 0.6, 0.8},
			// Perturb a not-yet-started job's runtime by ±50 %.
			event: func(t *testing.T, w *world, step int, from, to float64) {
				for _, j := range w.sc.Graph.Jobs() {
					a, ok := w.plan.Get(j.ID)
					if _, seen := w.ov[j.ID]; !ok || seen || a.Start <= to || w.st.Finished(j.ID) {
						continue
					}
					w.ov[j.ID] = 0.5 + r.Float64()
					break
				}
			},
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := taxonomyScenario(t)
			if tc.sc != nil {
				sc = tc.sc(t)
			}
			fracs := tc.fracs
			if fracs == nil {
				fracs = []float64{0.3, 0.55, 0.75}
			}
			w := &world{sc: sc, rs: sc.Pool.Initial(), ov: map[dag.JobID]float64{}, job: dag.NoJob}
			if tc.setup != nil {
				tc.setup(w)
			}
			build := func() *kernel.Kernel {
				k := quickKernel(t, sc)
				if w.drift != nil {
					k = kernel.New(sc.Graph, w.drift)
				}
				if w.occ != nil {
					k.SetOccupancy(w.occ)
				}
				return k
			}
			k := build()
			s0, err := k.Static(w.rs, kernel.Options{})
			if err != nil {
				t.Fatal(err)
			}
			w.plan, w.st = s0, k.NewState(sc.Pool.Size())
			run := &warmRun{t: t, sc: sc, build: build, k: k, st: w.st}
			from := 0.0
			for step, frac := range fracs {
				to := frac * s0.Makespan()
				if step > 0 {
					tc.event(t, w, step, from, to)
				}
				w.plan = run.step(w.plan, to, w.ov, w.rs, kernel.Options{}, fmt.Sprintf("step %d", step))
				from = to
			}
			if tc.check != nil {
				tc.check(t, w)
			}
		})
	}
}
