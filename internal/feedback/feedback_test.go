package feedback

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/drive"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/schedule"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

func newSampleTracker(t *testing.T, opts policy.Options) (*Tracker, *workload.Scenario) {
	t.Helper()
	sc := workload.SampleScenario()
	return newScenarioTracker(t, sc, opts), sc
}

// TestSampleClosedLoopAdoptsArrival reproduces the paper's Fig. 4/5
// worked example through the feedback loop: the r4 arrival at t=15,
// reported by the enactor rather than read from an arrival trace, must
// trigger an adopted reschedule that lands the measured makespan at 76
// (initial static plan: 80).
func TestSampleClosedLoopAdoptsArrival(t *testing.T) {
	tr, sc := newSampleTracker(t, policy.Options{TieWindow: 0.05})
	if tr.InitialMakespan() != 80 {
		t.Fatalf("initial makespan %g, want 80", tr.InitialMakespan())
	}
	// The whole Fig. 1 loop in process: drive's enactment loop reports
	// every start, finish and arrival into the tracker and resubmits
	// what it adopts.
	truth := drive.Truth(sc.Graph, sc.Estimator(), nil, sc.Pool)
	enacted, err := drive.Enact(context.Background(), truth, sc.Pool,
		[]*schedule.Schedule{tr.Plan()}, []int{0},
		func(_ int, evs []wire.ReportEvent) (*schedule.Schedule, bool, error) {
			out, err := tr.Apply(evs)
			if err != nil {
				return nil, false, err
			}
			if !out.Rescheduled {
				return nil, out.Done, nil
			}
			return tr.Plan(), out.Done, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	mk := enacted.Makespan()
	if !tr.Done() || mk != 76 || tr.Makespan() != 76 {
		t.Fatalf("done=%v makespan=%g tracker=%g, want 76", tr.Done(), mk, tr.Makespan())
	}
	if tr.Adoptions() == 0 || tr.Generation() < 2 {
		t.Fatalf("no adoption: gen=%d decisions=%+v", tr.Generation(), tr.Decisions())
	}
	for _, d := range tr.Decisions() {
		if d.Trigger != planner.TriggerArrival {
			t.Fatalf("unexpected trigger %s", d.Trigger)
		}
	}
}

// varianceScenario builds a workflow whose parallel jobs share one
// operation, so repeated executions populate the history and a slow
// outlier registers as significant variance.
func varianceScenario() (*dag.Graph, *cost.Table, *grid.Pool) {
	g := dag.New("variance")
	seed := g.AddJob("seed", "seed")
	var work []dag.JobID
	for i := 0; i < 4; i++ {
		j := g.AddJob("work"+string(rune('0'+i)), "work")
		g.AddEdge(seed, j, 1)
		work = append(work, j)
	}
	exit := g.AddJob("exit", "exit")
	for _, j := range work {
		g.AddEdge(j, exit, 1)
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	rows := make([][]float64, g.Len())
	for i := range rows {
		rows[i] = []float64{10, 10}
	}
	return g, cost.MustTable(rows), grid.StaticPool(2)
}

func TestVarianceTriggersReschedule(t *testing.T) {
	g, table, pool := varianceScenario()
	tr, err := New(Config{
		Graph: g, Prior: cost.Exact(table), Pool: pool,
		History: history.New(0), Policy: policy.MustGet("aheft"),
		VarianceThreshold: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(evs ...wire.ReportEvent) *Outcome {
		t.Helper()
		out, err := tr.Apply(evs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	apply(wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 0})
	apply(wire.ReportEvent{Kind: wire.ReportJobFinished, Time: 10, Job: 0, Duration: 10})
	// Two "work" executions on r0 at the nominal runtime build history…
	apply(wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 10, Job: 1, Resource: 0})
	apply(wire.ReportEvent{Kind: wire.ReportJobFinished, Time: 20, Job: 1, Duration: 10})
	apply(wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 20, Job: 2, Resource: 0})
	out := apply(wire.ReportEvent{Kind: wire.ReportJobFinished, Time: 30, Job: 2, Duration: 10})
	if len(out.Decisions) != 0 {
		t.Fatalf("nominal runtime triggered an evaluation: %+v", out.Decisions)
	}
	// …then a 2× outlier on the same (op, resource) cell must trigger.
	apply(wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 30, Job: 3, Resource: 0})
	out = apply(wire.ReportEvent{Kind: wire.ReportJobFinished, Time: 50, Job: 3, Duration: 20})
	if len(out.Decisions) != 1 || out.Decisions[0].Trigger != planner.TriggerVariance {
		t.Fatalf("outlier decisions: %+v", out.Decisions)
	}
	// An explicit variance event on a running job also triggers, and the
	// revised duration moves the pinned finish.
	apply(wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 50, Job: 4, Resource: 1})
	out = apply(wire.ReportEvent{Kind: wire.ReportVariance, Time: 55, Job: 4, Duration: 40})
	if len(out.Decisions) != 1 || out.Decisions[0].Trigger != planner.TriggerVariance {
		t.Fatalf("explicit variance decisions: %+v", out.Decisions)
	}
}

func TestDepartureForcesAdoption(t *testing.T) {
	tr, _ := newSampleTracker(t, policy.Options{})
	// Which resource does the initial plan lean on? Remove one that holds
	// pending work so the plan goes infeasible.
	victim := tr.Plan().Resources()[0]
	out, err := tr.Apply([]wire.ReportEvent{
		{Kind: wire.ReportResourceLeave, Time: 1, Resource: int(victim)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != 1 {
		t.Fatalf("decisions: %+v", out.Decisions)
	}
	d := out.Decisions[0]
	if d.Trigger != planner.TriggerDeparture || !d.Adopted || !math.IsInf(d.OldMakespan, 1) {
		t.Fatalf("departure decision: %+v", d)
	}
	for _, a := range tr.Plan().Assignments() {
		if a.Resource == victim {
			t.Fatalf("replanned schedule still uses departed resource %d: %+v", victim, a)
		}
	}
}

// TestSameInstantJoinsEvaluateOnce: resources joining at one instant are
// one arrival event, as in the analytic runner — a run of same-time joins
// in a batch evaluates once, after the last join, over the whole enlarged
// pool. Joins at distinct times still evaluate one by one.
func TestSameInstantJoinsEvaluateOnce(t *testing.T) {
	g, _, _ := varianceScenario()
	rows := make([][]float64, g.Len())
	for i := range rows {
		rows[i] = []float64{10, 10, 10, 10}
	}
	pool := grid.MustPool([]grid.Arrival{
		{Time: 0, Resource: grid.Resource{ID: 0, Name: "r1"}},
		{Time: 0, Resource: grid.Resource{ID: 1, Name: "r2"}},
		{Time: 10, Resource: grid.Resource{ID: 2, Name: "r3"}},
		{Time: 10, Resource: grid.Resource{ID: 3, Name: "r4"}},
	})
	type decision struct {
		clock         float64
		pool, arrived int
	}
	for _, tc := range []struct {
		name  string
		times [2]float64
		want  []decision
	}{
		{"one instant", [2]float64{5, 5}, []decision{{5, 4, 2}}},
		{"two instants", [2]float64{5, 6}, []decision{{5, 3, 1}, {6, 4, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := New(Config{
				Graph: g, Prior: cost.Exact(cost.MustTable(rows)), Pool: pool,
				History: history.New(0), Policy: policy.MustGet("aheft"),
			})
			if err != nil {
				t.Fatal(err)
			}
			out, err := tr.Apply([]wire.ReportEvent{
				{Kind: wire.ReportResourceJoin, Time: tc.times[0], Resource: 2},
				{Kind: wire.ReportResourceJoin, Time: tc.times[1], Resource: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []decision
			for _, d := range out.Decisions {
				if d.Trigger != planner.TriggerArrival {
					t.Fatalf("trigger %s, want arrival", d.Trigger)
				}
				got = append(got, decision{d.Clock, d.PoolSize, d.ArrivedCount})
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("decisions %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestWhatIfLiveSnapshot(t *testing.T) {
	tr, _ := newSampleTracker(t, policy.Options{TieWindow: 0.05})
	// Replay the initial plan's faithful execution up to t=15 — the
	// moment the Fig. 4 pool's fourth resource would join — then ask the
	// §3.3 question: what if it joined right now? The answer must be the
	// paper's adopted reschedule: 80 → 76.
	applyPlanUntil(t, tr, 15)
	for _, tc := range []struct {
		q    wire.WhatIfRequest
		want wire.WhatIfDoc
	}{
		{wire.WhatIfRequest{Clock: 15, Add: []int{3}},
			wire.WhatIfDoc{Clock: 15, PoolSize: 4, CurrentMakespan: 80, NewMakespan: 76, Delta: -4, WouldAdopt: true}},
		// Later than now, without the resource running job 2 (9 → 28): S0
		// is still priced on the real state — job 2 running, the full pool
		// — and the hypothesis restarts job 2 elsewhere.
		{wire.WhatIfRequest{Clock: 20, Remove: []int{2}},
			wire.WhatIfDoc{Clock: 20, PoolSize: 2, CurrentMakespan: 80, NewMakespan: 98, Delta: 18}},
	} {
		doc, err := tr.WhatIf(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if *doc != tc.want {
			t.Fatalf("what-if %+v: %+v, want %+v", tc.q, *doc, tc.want)
		}
	}
	// The tentative evaluation must not disturb the live plan.
	if tr.Generation() != 1 || tr.Plan().Makespan() != 80 {
		t.Fatalf("what-if mutated the live plan: gen=%d mk=%g", tr.Generation(), tr.Plan().Makespan())
	}
	if _, err := tr.WhatIf(wire.WhatIfRequest{Add: []int{99}}); err == nil {
		t.Fatal("out-of-universe add accepted")
	}
	if _, err := tr.WhatIf(wire.WhatIfRequest{Remove: []int{0, 1, 2}}); err == nil {
		t.Fatal("empty hypothetical pool accepted")
	}
}

// applyPlanUntil reports the tracker's current plan, executed faithfully,
// up to clock: every job started before it, and every job finished by it.
func applyPlanUntil(t *testing.T, tr *Tracker, clock float64) {
	t.Helper()
	var evs []wire.ReportEvent
	for _, a := range tr.Plan().Assignments() {
		if a.Start < clock {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobStarted, Time: a.Start, Job: int(a.Job), Resource: int(a.Resource),
			})
		}
		if a.Finish <= clock {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobFinished, Time: a.Finish, Job: int(a.Job), Duration: a.Finish - a.Start,
			})
		}
	}
	sortEvents(evs)
	if _, err := tr.Apply(evs); err != nil {
		t.Fatal(err)
	}
}

// sortEvents time-orders a replayed batch, keeping starts ahead of the
// finishes that share their timestamp.
func sortEvents(evs []wire.ReportEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Kind == wire.ReportJobStarted && evs[j].Kind != wire.ReportJobStarted
	})
}

func TestApplyRejectionsAreAtomic(t *testing.T) {
	tr, _ := newSampleTracker(t, policy.Options{})
	cases := []struct {
		name string
		evs  []wire.ReportEvent
		want string
	}{
		{"job out of range", []wire.ReportEvent{
			{Kind: wire.ReportJobStarted, Time: 0, Job: 10, Resource: 0},
		}, "out of range"},
		{"finish before start", []wire.ReportEvent{
			{Kind: wire.ReportJobFinished, Time: 5, Job: 0, Duration: 5},
		}, "before it started"},
		{"double start", []wire.ReportEvent{
			{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 0},
			{Kind: wire.ReportJobStarted, Time: 1, Job: 0, Resource: 1},
		}, "twice"},
		{"start on unavailable resource", []wire.ReportEvent{
			{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 3},
		}, "unavailable resource"},
		{"join available resource", []wire.ReportEvent{
			{Kind: wire.ReportResourceJoin, Time: 0, Resource: 0},
		}, "already available"},
		{"leave absent resource", []wire.ReportEvent{
			{Kind: wire.ReportResourceLeave, Time: 0, Resource: 3},
		}, "not available"},
		{"variance on idle job", []wire.ReportEvent{
			{Kind: wire.ReportVariance, Time: 0, Job: 0},
		}, "not running"},
		{"resource out of range", []wire.ReportEvent{
			{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 9},
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tr.Apply(tc.evs)
			if err == nil {
				t.Fatalf("accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// A batch whose *second* event is bad must leave the run untouched —
	// the valid first event must still be applicable afterwards.
	_, err := tr.Apply([]wire.ReportEvent{
		{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 0},
		{Kind: wire.ReportJobFinished, Time: 4, Job: 5, Duration: 4},
	})
	if err == nil || !strings.Contains(err.Error(), "before it started") {
		t.Fatalf("mixed batch: %v", err)
	}
	if out, err := tr.Apply([]wire.ReportEvent{
		{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 0},
	}); err != nil || out.Applied != 1 {
		t.Fatalf("state was mutated by the rejected batch: %v %+v", err, out)
	}
	// Non-monotonic across reports: the run clock is now 0; an earlier
	// time must bounce.
	_, err = tr.Apply([]wire.ReportEvent{
		{Kind: wire.ReportJobFinished, Time: 0, Job: 0, Duration: 1},
		{Kind: wire.ReportJobStarted, Time: 0, Job: 1, Resource: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Apply([]wire.ReportEvent{
		{Kind: wire.ReportVariance, Time: -1, Job: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "non-monotonic") {
		t.Fatalf("non-monotonic report: %v", err)
	}
}

func TestCompletionAndPostDoneApply(t *testing.T) {
	g, table, pool := varianceScenario()
	tr, err := New(Config{
		Graph: g, Prior: cost.Exact(table), Pool: pool,
		History: history.New(0), Policy: policy.MustGet("aheft"),
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := 0.0
	for j := 0; j < g.Len(); j++ {
		out, err := tr.Apply([]wire.ReportEvent{
			{Kind: wire.ReportJobStarted, Time: clock, Job: j, Resource: 0},
			{Kind: wire.ReportJobFinished, Time: clock + 10, Job: j, Duration: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		clock += 10
		if j == g.Len()-1 {
			if !out.Done || out.Makespan != clock {
				t.Fatalf("final report: %+v (clock %g)", out, clock)
			}
		}
	}
	if !tr.Done() || tr.Makespan() != clock {
		t.Fatalf("done=%v makespan=%g", tr.Done(), tr.Makespan())
	}
	if _, err := tr.Apply([]wire.ReportEvent{
		{Kind: wire.ReportResourceJoin, Time: clock, Resource: 1},
	}); err == nil {
		t.Fatal("post-completion report accepted")
	}
	if _, err := tr.WhatIf(wire.WhatIfRequest{Add: []int{1}}); err == nil {
		t.Fatal("post-completion what-if accepted")
	}
}

// TestProjectionTracksDrift: when every job runs 50% slow, the current
// plan's price must exceed its nominal makespan — the honest S0 the
// adoption comparison needs.
func TestProjectionTracksDrift(t *testing.T) {
	g, table, pool := varianceScenario()
	tr, err := New(Config{
		Graph: g, Prior: cost.Exact(table), Pool: pool,
		History: history.New(0), Policy: policy.MustGet("aheft"),
	})
	if err != nil {
		t.Fatal(err)
	}
	nominal := tr.Plan().Makespan()
	if p := price(tr); p != nominal {
		t.Fatalf("cold price %g, want nominal %g", p, nominal)
	}
	// Seed finishes 50% slow; history now predicts 15 for "seed" but the
	// pending "work" ops are unobserved, so only the measured drift and
	// the later start move the price.
	if _, err := tr.Apply([]wire.ReportEvent{
		{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 0},
		{Kind: wire.ReportJobFinished, Time: 15, Job: 0, Duration: 15},
	}); err != nil {
		t.Fatal(err)
	}
	if p := price(tr); p <= nominal {
		t.Fatalf("price %g did not track the 50%% drift past %g", p, nominal)
	}
}
