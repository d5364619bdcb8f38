package drive

import (
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"slices"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// FuzzEnactEqualsPrice holds Enact to its defining property: with a
// reporter that never adopts, the enacted schedule is the truth's pricing
// of the merged plan, job for job and bit for bit, and every job is
// reported started, then finished, at its priced times. The input picks
// the workflow class (random, BLAST, WIEN2K or the data scenario), its
// size, the runtime noise and the arrival churn, one tenant or two merged,
// and whether the plans may use resources that join late.
func FuzzEnactEqualsPrice(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var b [16]byte
		copy(b[:], in)
		size := int(b[1])
		noise, churn := float64(b[2])/255*0.5, float64(b[3])/255*0.5
		tenants := 1 + int(b[4]&1)
		late := b[4]&2 != 0
		seed := binary.LittleEndian.Uint64(b[8:])
		r := rng.New(seed)
		gp := workload.GridParams{
			InitialResources: 2 + size%5, ChangeInterval: 30 + float64(size%7)*40, ChangePct: 0.5, MaxEvents: 3,
		}
		ccr := []float64{0.1, 1, 5}[size%3]
		scs := make([]*workload.Scenario, tenants)
		for i := range scs {
			var err error
			switch b[0] % 4 {
			case 0:
				scs[i], err = workload.RandomScenario(workload.RandomParams{
					Jobs: 5 + size%40, CCR: ccr, OutDegree: 0.3, Beta: 0.5,
				}, gp, r)
			case 1:
				scs[i], err = workload.BlastScenario(workload.AppParams{Parallelism: 2 + size%10, CCR: ccr, Beta: 0.5}, gp, r)
			case 2:
				scs[i], err = workload.Wien2kScenario(workload.AppParams{Parallelism: 2 + size%10, CCR: ccr, Beta: 0.5}, gp, r)
			default:
				scs[i] = workload.DataScenario(workload.DataParams{Searches: 2 + size%30})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		pool := scs[0].Pool
		ts := make([]Tenant, tenants)
		plans := make([]*schedule.Schedule, tenants)
		noisy := make([]*cost.Table, tenants)
		draw := rng.New(seed ^ 0x7ea1)
		enacted, err := churnPool(pool, churn, draw)
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range scs {
			if sc.Table.Resources() != pool.Size() {
				t.Fatalf("tenant %d costs %d resources, the pool has %d", i, sc.Table.Resources(), pool.Size())
			}
			ts[i] = Tenant{Scenario: sc}
			noisy[i] = noisyTable(sc, noise, draw)
			k := kernel.New(sc.Graph, sc.Estimator())
			if sc.Files != nil {
				m, err := data.NewModel(sc.Files, pool, sc.Graph, 0)
				if err != nil {
					t.Fatal(err)
				}
				k.SetData(m)
			}
			rs := pool.Initial()
			if late {
				rs = pool.AvailableAt(math.Inf(1))
			}
			if plans[i], err = k.Static(rs, kernel.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		g, offsets, files, err := mergeGraphs(ts)
		if err != nil {
			t.Fatal(err)
		}
		table, err := mergeTables(noisy, pool.Size())
		if err != nil {
			t.Fatal(err)
		}
		var m *data.Model
		if files != nil {
			if m, err = data.NewModel(files, enacted, g, 0); err != nil {
				t.Fatal(err)
			}
		}
		truth := Truth(g, cost.Exact(table), m, enacted)
		all := enacted.AvailableAt(math.Inf(1))
		merged := mergeSchedules(plans, offsets)
		want, mk := truth.Retime(all, nil, merged), truth.Price(all, nil, merged)

		started := make([]bool, g.Len())
		finished, clock := 0, make([]float64, tenants)
		got, err := Enact(context.Background(), truth, enacted, slices.Clone(plans), offsets,
			func(i int, evs []wire.ReportEvent) (*schedule.Schedule, bool, error) {
				for _, ev := range evs {
					if ev.Time < clock[i] {
						t.Fatalf("event %+v reported to tenant %d after clock %v", ev, i, clock[i])
					}
					clock[i] = ev.Time
					if ev.Kind == wire.ReportResourceJoin {
						continue
					}
					j := dag.JobID(ev.Job + offsets[i])
					a := want.MustGet(j)
					switch {
					case int(a.Resource) != ev.Resource:
						t.Fatalf("%+v: priced on resource %d", ev, a.Resource)
					case ev.Kind == wire.ReportJobStarted && (started[j] || ev.Time != a.Start):
						t.Fatalf("%+v: priced start %v, started before %v", ev, a.Start, started[j])
					case ev.Kind == wire.ReportJobFinished && (!started[j] || ev.Time != a.Finish || ev.Duration != a.Finish-a.Start):
						t.Fatalf("%+v: priced finish %v, started %v", ev, a.Finish, started[j])
					}
					if ev.Kind == wire.ReportJobStarted {
						started[j] = true
					} else {
						finished++
					}
				}
				return nil, false, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan() != mk || finished != g.Len() {
			t.Fatalf("enacted makespan %v with %d of %d finishes reported, truth.Price %v", got.Makespan(), finished, g.Len(), mk)
		}
		for a := range want.ByJob() {
			if e := got.MustGet(a.Job); e != a {
				t.Fatalf("job %d enacted %+v, priced %+v", a.Job, e, a)
			}
		}
	})
}

// sampleTruth enacts the paper's sample plan (HEFT on the initial three
// resources) on pool under exact runtimes, with a reporter that records
// every batch and never adopts.
func sampleTruth(t *testing.T, pool *grid.Pool) (*schedule.Schedule, [][]wire.ReportEvent) {
	t.Helper()
	sc := workload.SampleScenario()
	s0, err := kernel.New(sc.Graph, sc.Estimator()).Static(pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]wire.ReportEvent
	got, err := Enact(context.Background(), Truth(sc.Graph, sc.Estimator(), nil, pool), pool,
		[]*schedule.Schedule{s0}, []int{0}, func(_ int, evs []wire.ReportEvent) (*schedule.Schedule, bool, error) {
			batches = append(batches, slices.Clone(evs))
			return nil, false, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return got, batches
}

// TestEnactReportsEveryEvent: the sample enacts at its planned makespan of
// 80, reporting one batch per finish and per arrival — every job started
// and finished, each finish with its duration, and r4's join at t=15.
func TestEnactReportsEveryEvent(t *testing.T) {
	got, batches := sampleTruth(t, workload.SampleScenario().Pool)
	if got.Makespan() != 80 {
		t.Fatalf("makespan = %g, want 80", got.Makespan())
	}
	counts := map[string]int{}
	for _, b := range batches {
		last := b[len(b)-1]
		if last.Kind == wire.ReportJobStarted {
			t.Fatalf("batch %+v ends in a start: starts ride in front of a finish or a join", b)
		}
		for _, ev := range b {
			counts[ev.Kind]++
			if ev.Kind == wire.ReportJobFinished && ev.Duration <= 0 {
				t.Errorf("finish without duration: %+v", ev)
			}
			if ev.Kind == wire.ReportResourceJoin && (ev.Time != 15 || ev.Resource != 3) {
				t.Errorf("join %+v, want r4 at t=15", ev)
			}
		}
	}
	want := map[string]int{wire.ReportJobStarted: 10, wire.ReportJobFinished: 10, wire.ReportResourceJoin: 1}
	if len(batches) != 11 || !maps.Equal(counts, want) {
		t.Fatalf("%d batches with %v events, want 11 with %v", len(batches), counts, want)
	}
}

// TestEnactSampleSchedule: under exact runtimes the sample's HEFT plan is
// enacted as planned, every job at its planned place and times, and the
// run ends at the planned makespan of 80.
func TestEnactSampleSchedule(t *testing.T) {
	sc := workload.SampleScenario()
	s0, err := kernel.New(sc.Graph, sc.Estimator()).Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sampleTruth(t, sc.Pool)
	if got.Len() != sc.Graph.Len() || got.Makespan() != 80 {
		t.Fatalf("enacted %d of %d jobs by %g, want all by 80", got.Len(), sc.Graph.Len(), got.Makespan())
	}
	for a := range s0.ByJob() {
		if e := got.MustGet(a.Job); e != a {
			t.Fatalf("job %d enacted %+v, planned %+v", a.Job, e, a)
		}
	}
}

// scaledRuntime runs every job factor times slower than base estimates.
type scaledRuntime struct {
	base   cost.Estimator
	factor float64
}

func (s scaledRuntime) Comp(j dag.JobID, r grid.ID) float64 { return s.factor * s.base.Comp(j, r) }
func (s scaledRuntime) Comm(e dag.Edge, a, b grid.ID) float64 {
	return s.base.Comm(e, a, b)
}

// TestEnactSlowRuntimeDelaysExecution: when the truth runs every job half
// as slow again as the plan assumed, the sample plan ends later than its
// planned 80, at the truth's pricing of that plan.
func TestEnactSlowRuntimeDelaysExecution(t *testing.T) {
	sc := workload.SampleScenario()
	s0, err := kernel.New(sc.Graph, sc.Estimator()).Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := Truth(sc.Graph, scaledRuntime{base: sc.Estimator(), factor: 1.5}, nil, sc.Pool)
	got, err := Enact(context.Background(), truth, sc.Pool, []*schedule.Schedule{s0}, []int{0},
		func(int, []wire.ReportEvent) (*schedule.Schedule, bool, error) { return nil, false, nil })
	if err != nil {
		t.Fatal(err)
	}
	mk := truth.Price(sc.Pool.AvailableAt(math.Inf(1)), nil, s0)
	if got.Makespan() <= 80 || got.Makespan() != mk {
		t.Fatalf("slow enactment ends at %g, want past 80 and at the truth's price %g", got.Makespan(), mk)
	}
}

// TestEnactSuppressesArrivalsAfterCompletion: a resource that joins after
// the workflow completes is reported to nobody.
func TestEnactSuppressesArrivalsAfterCompletion(t *testing.T) {
	pool := grid.MustPool([]grid.Arrival{
		{Time: 0, Resource: grid.Resource{ID: 0, Name: "r1"}},
		{Time: 0, Resource: grid.Resource{ID: 1, Name: "r2"}},
		{Time: 0, Resource: grid.Resource{ID: 2, Name: "r3"}},
		{Time: 500, Resource: grid.Resource{ID: 3, Name: "r4"}},
	})
	_, batches := sampleTruth(t, pool)
	for _, b := range batches {
		for _, ev := range b {
			if ev.Kind == wire.ReportResourceJoin {
				t.Fatalf("arrival after completion delivered: %+v", ev)
			}
		}
	}
}

// instantPlan enacts four independent jobs on r0 and r1 — a and b at
// [0,10), then d (3) and c (5) — while r2 joins at 10, recording the
// batches, and returns them.
func instantPlan(t *testing.T) [][]wire.ReportEvent {
	t.Helper()
	g := dag.New("instant")
	a, b, c, d := g.AddJob("a", ""), g.AddJob("b", ""), g.AddJob("c", ""), g.AddJob("d", "")
	g.MustValidate()
	tb := cost.MustTable([][]float64{{10, 10, 10}, {10, 10, 10}, {5, 5, 5}, {3, 3, 3}})
	pool := grid.MustPool([]grid.Arrival{
		{Time: 0, Resource: grid.Resource{ID: 0}}, {Time: 0, Resource: grid.Resource{ID: 1}},
		{Time: 10, Resource: grid.Resource{ID: 2}},
	})
	plan := schedule.FromAssignments([]schedule.Assignment{
		{Job: a, Resource: 1, Start: 0, Finish: 10}, {Job: b, Resource: 0, Start: 0, Finish: 10},
		{Job: c, Resource: 1, Start: 10, Finish: 15}, {Job: d, Resource: 0, Start: 10, Finish: 13},
	})
	var batches [][]wire.ReportEvent
	if _, err := Enact(context.Background(), Truth(g, cost.Exact(tb), nil, pool), pool, []*schedule.Schedule{plan}, []int{0},
		func(_ int, evs []wire.ReportEvent) (*schedule.Schedule, bool, error) {
			batches = append(batches, slices.Clone(evs))
			return nil, false, nil
		}); err != nil {
		t.Fatal(err)
	}
	return batches
}

// TestEnactOrdersOneInstant pins the order of what happens at one
// instant: finishes first, in the order their jobs started (resource
// order at one start), then the arrival, then starts in resource order.
func TestEnactOrdersOneInstant(t *testing.T) {
	type ev struct {
		kind string
		job  int
		at   float64
	}
	var got [][]ev
	for _, b := range instantPlan(t) {
		var row []ev
		for _, e := range b {
			row = append(row, ev{e.Kind, e.Job, e.Time})
		}
		got = append(got, row)
	}
	s, f, j := wire.ReportJobStarted, wire.ReportJobFinished, wire.ReportResourceJoin
	want := [][]ev{
		{{s, 1, 0}, {s, 0, 0}, {f, 1, 10}},
		{{f, 0, 10}},
		{{j, 0, 10}},
		{{s, 3, 10}, {s, 2, 10}, {f, 3, 13}},
		{{f, 2, 15}},
	}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("batches %v, want %v", got, want)
	}
}

// TestEnactWaitsForJoin: a job placed on a resource that has not joined
// yet starts when it joins.
func TestEnactWaitsForJoin(t *testing.T) {
	g := dag.New("late")
	a := g.AddJob("a", "")
	g.MustValidate()
	tb := cost.MustTable([][]float64{{10, 4}})
	pool := grid.MustPool([]grid.Arrival{{Time: 0, Resource: grid.Resource{ID: 0}}, {Time: 7, Resource: grid.Resource{ID: 1}}})
	plan := schedule.FromAssignments([]schedule.Assignment{{Job: a, Resource: 1, Start: 0, Finish: 4}})
	got, err := Enact(context.Background(), Truth(g, cost.Exact(tb), nil, pool), pool, []*schedule.Schedule{plan}, []int{0},
		func(int, []wire.ReportEvent) (*schedule.Schedule, bool, error) { return nil, false, nil })
	if err != nil {
		t.Fatal(err)
	}
	if e := got.MustGet(a); e.Start != 7 || e.Finish != 11 {
		t.Fatalf("enacted %+v, want [7, 11) on the resource joining at 7", e)
	}
}

// TestEnactRejectsUnjoinedResource: a plan placing a job on a resource
// that never joins is an error, not a hang.
func TestEnactRejectsUnjoinedResource(t *testing.T) {
	g := dag.New("x")
	a := g.AddJob("a", "")
	g.MustValidate()
	pool := grid.StaticPool(1)
	plan := schedule.FromAssignments([]schedule.Assignment{{Job: a, Resource: 1, Start: 0, Finish: 10}})
	_, err := Enact(context.Background(), Truth(g, cost.Exact(cost.MustTable([][]float64{{10, 10}})), nil, pool), pool,
		[]*schedule.Schedule{plan}, []int{0}, func(int, []wire.ReportEvent) (*schedule.Schedule, bool, error) { return nil, false, nil })
	if err == nil {
		t.Fatal("a plan on a resource that never joins was enacted")
	}
}

// TestEnactRejectsBadArguments: Enact needs a truth, a pool, a reporter
// and an offset per plan.
func TestEnactRejectsBadArguments(t *testing.T) {
	sc := workload.SampleScenario()
	s0, err := kernel.New(sc.Graph, sc.Estimator()).Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := Truth(sc.Graph, sc.Estimator(), nil, sc.Pool)
	keep := func(int, []wire.ReportEvent) (*schedule.Schedule, bool, error) { return nil, false, nil }
	plans := func(s *schedule.Schedule) []*schedule.Schedule { return []*schedule.Schedule{s} }
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"nil truth": func() error { _, err := Enact(ctx, nil, sc.Pool, plans(s0), []int{0}, keep); return err },
		"nil pool":  func() error { _, err := Enact(ctx, truth, nil, plans(s0), []int{0}, keep); return err },
		"nil report": func() error {
			_, err := Enact(ctx, truth, sc.Pool, plans(s0), []int{0}, nil)
			return err
		},
		"no offset": func() error { _, err := Enact(ctx, truth, sc.Pool, plans(s0), nil, keep); return err },
	} {
		if call() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEnactRejectsIncompleteSchedule: every plan Enact is handed — the
// first and each adopted one — must cover the workflow.
func TestEnactRejectsIncompleteSchedule(t *testing.T) {
	sc := workload.SampleScenario()
	s0, err := kernel.New(sc.Graph, sc.Estimator()).Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := Truth(sc.Graph, sc.Estimator(), nil, sc.Pool)
	keep := func(int, []wire.ReportEvent) (*schedule.Schedule, bool, error) { return nil, false, nil }
	plans := func(s *schedule.Schedule) []*schedule.Schedule { return []*schedule.Schedule{s} }
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"incomplete first plan": func() error {
			_, err := Enact(ctx, truth, sc.Pool, plans(schedule.New()), []int{0}, keep)
			return err
		},
		"incomplete adopted plan": func() error {
			_, err := Enact(ctx, truth, sc.Pool, plans(s0), []int{0},
				func(int, []wire.ReportEvent) (*schedule.Schedule, bool, error) { return schedule.New(), false, nil })
			return err
		},
	} {
		if call() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEnactHonoursCancellation: a cancelled context aborts the run with
// its error at the first run-time event.
func TestEnactHonoursCancellation(t *testing.T) {
	sc := workload.SampleScenario()
	s0, err := kernel.New(sc.Graph, sc.Estimator()).Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	reports := 0
	_, err = Enact(ctx, Truth(sc.Graph, sc.Estimator(), nil, sc.Pool), sc.Pool, []*schedule.Schedule{s0}, []int{0},
		func(int, []wire.ReportEvent) (*schedule.Schedule, bool, error) {
			reports++
			cancel()
			return nil, false, nil
		})
	if !errors.Is(err, context.Canceled) || reports != 1 {
		t.Fatalf("err = %v after %d reports, want context.Canceled after 1", err, reports)
	}
}

// TestEnactPinsRunningJobsWhereTheyRun is the case where the executor
// this engine replaced and the truth part ways. An adopted plan can list a
// job that is running elsewhere — a plan a daemon made before the batch
// that reported the start. The executor queued every job behind it on
// the listed resource until it finished, idling a free resource; the
// truth keeps the job where it runs and starts the next one at once.
func TestEnactPinsRunningJobsWhereTheyRun(t *testing.T) {
	g := dag.New("stale")
	a, b, c := g.AddJob("a", ""), g.AddJob("b", ""), g.AddJob("c", "")
	g.MustValidate()
	tb := cost.MustTable([][]float64{{10, 10}, {5, 5}, {3, 3}})
	pool := grid.StaticPool(2)
	p0 := schedule.FromAssignments([]schedule.Assignment{
		{Job: a, Resource: 0, Start: 0, Finish: 10}, {Job: b, Resource: 1, Start: 0, Finish: 5},
		{Job: c, Resource: 1, Start: 5, Finish: 8},
	})
	stale := schedule.FromAssignments([]schedule.Assignment{
		{Job: a, Resource: 1, Start: 0, Finish: 10}, {Job: b, Resource: 1, Start: 0, Finish: 5},
		{Job: c, Resource: 1, Start: 10, Finish: 13},
	})
	adopted := false
	got, err := Enact(context.Background(), Truth(g, cost.Exact(tb), nil, pool), pool, []*schedule.Schedule{p0}, []int{0},
		func(int, []wire.ReportEvent) (*schedule.Schedule, bool, error) {
			if adopted {
				return nil, false, nil
			}
			adopted = true
			return stale, false, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if ea, ec := got.MustGet(a), got.MustGet(c); ea.Resource != 0 || ea.Finish != 10 || ec.Start != 5 {
		t.Fatalf("enacted a %+v, c %+v; want a kept on r0 and c started at 5", ea, ec)
	}
}
