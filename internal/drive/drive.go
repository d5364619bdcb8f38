// Package drive is the enactment side of the paper's Fig. 1 architecture
// run against a live aheftd daemon: it submits workflows in live mode,
// fetches the daemon's plans, executes them on the simulated grid
// (internal/executor + internal/sim) with configurable runtime noise and
// resource churn, and reports every run-time event — job starts, measured
// finishes, resource joins — back through POST /v1/workflows/{id}/report,
// adopting whatever reschedule the daemon returns. It also executes a
// nobody-listens baseline under the same noise and churn, so callers can
// measure what adaptivity bought.
//
// There is one of each part: Client is the only daemon HTTP client, Enact
// the only enactment loop (Run drives it against the daemon, one tenant
// on its own pool or several co-scheduled on a named shared grid; the
// root facade drives it against an in-process feedback.Tracker), Replay
// the only builder of faithful plan-to-report event lists (cmd/chaos and
// the data-aware tests use it). The daemon's acceptance tests and
// cmd/chaos share this harness. A Run with a fixed Config and
// tenants is deterministic as long as the tenants' histories are not
// perturbed by concurrent workflows: the noise tables and churned pool
// are pre-materialised from the seed, and the simulation itself is a
// deterministic event loop.
package drive

import (
	"context"
	"fmt"
	"sort"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/executor"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/sim"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// Config parameterises one run.
type Config struct {
	// Client reaches the daemon.
	Client
	// Grid names the shared grid the tenants are submitted against
	// (pool: "shared:<name>"); it is registered with Pool if absent.
	// Empty means no shared grid: the single tenant is submitted with
	// Pool as its own private pool.
	Grid string
	// Pool is the resource universe every tenant enacts on; nil means the
	// first tenant's Scenario.Pool.
	Pool *grid.Pool
	// Noise is the actual-runtime perturbation: each (tenant, job,
	// resource) runtime is the estimate scaled by a factor drawn once from
	// [1−Noise, 1+Noise]. 0 reproduces the estimates exactly.
	Noise float64
	// Churn jitters each planned resource arrival time by a factor drawn
	// from [1−Churn, 1+Churn], once for the whole run — the enacted grid
	// diverges from the submitted one, and the daemon only learns the
	// truth from resource-join reports.
	Churn float64
	// Seed drives the noise and churn draws.
	Seed uint64
}

// Tenant is one workflow of a run.
type Tenant struct {
	// Name labels the submission and the outcome row.
	Name string
	// History is the daemon-side tenant: it scopes the performance history
	// the daemon plans with and the admission queue the submission waits
	// in. Name when empty.
	History string
	// Scenario supplies the workflow graph, estimator table and optional
	// file catalog; its Pool only matters through Config.Pool's default.
	Scenario *workload.Scenario
	// Policy and Options go into the submission ("aheft" when empty).
	Policy  string
	Options wire.Options
}

// Row is one tenant's measured result.
type Row struct {
	ID   string
	Name string
	Jobs int
	// AdaptiveMakespan is the tenant's simulated completion time with the
	// daemon's plans enacted and its reschedules adopted mid-flight.
	// BaselineMakespan is its completion time on the identical job stream
	// with nobody listening: on a private pool the daemon's initial plan
	// enacted without feedback (never-reschedule), on a shared grid every
	// tenant's plan computed as if it were alone (isolated planning — what
	// the daemon produced before shared grids existed) and the plans
	// enacted together. DaemonMakespan is what the daemon's terminal
	// status reported (equals AdaptiveMakespan when the loop is
	// consistent); InitialMakespan is the first plan's promise.
	AdaptiveMakespan float64
	BaselineMakespan float64
	DaemonMakespan   float64
	InitialMakespan  float64
	// Reports / Events count what was POSTed, Decisions the evaluations
	// the daemon ran for them; Generation is the final plan generation.
	Reports    int
	Events     int
	Decisions  int
	Generation int
	// Reschedules counts adopted plans; ByTrigger splits it by the ack's
	// trigger name ("contention" is a plan adopted because *another*
	// workflow's reservations released).
	Reschedules int
	ByTrigger   map[string]int
}

// Outcome is the measured result of one run.
type Outcome struct {
	Tenants []Row
	// FinalReservations and FinalTransferReservations are the shared
	// grid's occupancy after every tenant finished — anything but zero is
	// a leak.
	FinalReservations         int
	FinalTransferReservations int
}

// Run drives the tenants through the daemon's feedback loop to completion
// and returns the per-tenant outcomes against the nobody-listens baseline.
//
// All tenants are executed *together* on a single discrete-event
// simulation of the pool, where a resource runs one job at a time across
// every tenant. The executor already enforces exclusivity and planned
// queue order, so enacting the union of all tenants' plans as one merged
// schedule makes cross-workflow contention physically real: oblivious
// plans that reserved the same slot queue behind each other,
// contention-aware plans run side by side.
func Run(ctx context.Context, cfg Config, tenants []Tenant) (*Outcome, error) {
	shared := cfg.Grid != ""
	if len(tenants) == 0 || (!shared && len(tenants) != 1) {
		return nil, fmt.Errorf("drive: %d tenants (a private pool takes exactly one)", len(tenants))
	}
	if cfg.Pool == nil {
		cfg.Pool = tenants[0].Scenario.Pool
	}
	if cfg.Pool == nil || cfg.Pool.Size() == 0 {
		return nil, fmt.Errorf("drive: run needs a pool")
	}
	c := &cfg.Client
	if shared {
		if err := c.EnsureGrid(ctx, cfg.Grid, cfg.Pool); err != nil {
			return nil, err
		}
	}

	// The truth of the run, drawn once up front so the adaptive run and
	// the baseline see identical runtimes and arrivals. The two salts and
	// draw orders predate the unified Run; the daemon's tests, benches and
	// CI gate statistics are pinned to the streams they produce.
	noisy := make([]*cost.Table, len(tenants))
	drawNoise := func(r *rng.Source) {
		for i, tn := range tenants {
			noisy[i] = noisyTable(tn.Scenario, cfg.Noise, r)
		}
	}
	var enacted *grid.Pool
	var err error
	if shared {
		r := rng.New(cfg.Seed ^ 0x5a11ed641d)
		enacted, err = churnPool(cfg.Pool, cfg.Churn, r)
		drawNoise(r)
	} else {
		r := rng.New(cfg.Seed ^ 0xd21fe00d)
		drawNoise(r)
		enacted, err = churnPool(cfg.Pool, cfg.Churn, r)
	}
	if err != nil {
		return nil, fmt.Errorf("drive: churn pool: %w", err)
	}
	merged, offsets, err := mergeGraphs(tenants)
	if err != nil {
		return nil, err
	}
	mergedNoisy, err := mergeTables(noisy, cfg.Pool.Size())
	if err != nil {
		return nil, err
	}

	// Live submissions, then every initial plan.
	out := &Outcome{Tenants: make([]Row, len(tenants))}
	for i, tn := range tenants {
		body, err := Submission(cfg.Grid, cfg.Pool, tn)
		if err != nil {
			return nil, err
		}
		id, _, err := c.Submit(ctx, body)
		if err != nil {
			return nil, err
		}
		out.Tenants[i] = Row{ID: id, Name: tn.Name, Jobs: tn.Scenario.Graph.Len(), ByTrigger: map[string]int{}}
	}
	plans := make([]*schedule.Schedule, len(tenants))
	for i := range tenants {
		row := &out.Tenants[i]
		plan, err := c.Plan(ctx, row.ID)
		if err != nil {
			return nil, err
		}
		if plans[i], err = planSchedule(plan, tenants[i].Scenario.Graph); err != nil {
			return nil, err
		}
		row.InitialMakespan, row.Generation = plan.Makespan, plan.Generation
	}

	// The nobody-listens baseline. It cannot depend on the adaptive run,
	// so it runs first on its own engine.
	baseline := plans
	if shared {
		baseline = make([]*schedule.Schedule, len(tenants))
		for i, tn := range tenants {
			if baseline[i], err = isolatedPlan(tn, cfg.Pool); err != nil {
				return nil, fmt.Errorf("drive: isolated plan %s: %w", tn.Name, err)
			}
		}
	}
	base, err := executor.New(sim.New(), merged, cost.Exact(mergedNoisy), enacted, mergeSchedules(baseline, offsets), nil)
	if err != nil {
		return nil, fmt.Errorf("drive: baseline: %w", err)
	}
	recs, err := base.Run()
	if err != nil {
		return nil, fmt.Errorf("drive: baseline: %w", err)
	}
	for i, m := range finishTimes(recs, offsets) {
		out.Tenants[i].BaselineMakespan = m
	}

	recs, err = Enact(ctx, merged, cost.Exact(mergedNoisy), enacted, plans, offsets,
		func(i int, evs []wire.ReportEvent) (*schedule.Schedule, bool, error) {
			row := &out.Tenants[i]
			ack, err := c.Report(ctx, row.ID, evs)
			if err != nil {
				return nil, false, err
			}
			row.Reports++
			row.Events += ack.Applied
			row.Decisions += ack.Decisions
			if ack.Plan == nil {
				return nil, ack.Done, nil
			}
			row.Reschedules++
			row.ByTrigger[ack.Trigger]++
			plan, err := planSchedule(ack.Plan, tenants[i].Scenario.Graph)
			return plan, ack.Done, err
		})
	if err != nil {
		return nil, err
	}
	for i, m := range finishTimes(recs, offsets) {
		out.Tenants[i].AdaptiveMakespan = m
	}

	for i := range out.Tenants {
		row := &out.Tenants[i]
		st, err := c.Status(ctx, row.ID)
		if err != nil {
			return nil, err
		}
		if st.State != "done" {
			return nil, fmt.Errorf("drive: workflow %s ended %s: %s", row.ID, st.State, st.Error)
		}
		row.DaemonMakespan, row.Generation = st.Makespan, st.Generation
	}
	if shared {
		gst, err := c.Grid(ctx, cfg.Grid)
		if err != nil {
			return nil, err
		}
		out.FinalReservations, out.FinalTransferReservations = gst.Reservations, gst.TransferReservations
	}
	return out, nil
}

// Submission encodes tn's live submission: against the named shared
// grid, or carrying pool as its own private pool when gridName is empty.
func Submission(gridName string, pool *grid.Pool, tn Tenant) ([]byte, error) {
	sub := &wire.Submission{
		Name:       tn.Name,
		Mode:       wire.ModeLive,
		Tenant:     tn.History,
		Policy:     tn.Policy,
		Options:    tn.Options,
		Graph:      tn.Scenario.Graph,
		Comp:       tn.Scenario.Table,
		Files:      tn.Scenario.Files,
		SharedGrid: gridName,
	}
	if sub.Tenant == "" {
		sub.Tenant = tn.Name
	}
	if gridName == "" {
		sub.Pool = pool
	}
	body, err := wire.EncodeSubmission(sub)
	if err != nil {
		return nil, fmt.Errorf("drive: encode submission %s: %w", tn.Name, err)
	}
	return body, nil
}

// Reporter delivers tenant i's batch of run-time events to the planner
// that owns its workflow. It returns the plan to enact from now on (nil
// keeps the current one) and whether the workflow is complete. Run
// reports over HTTP to a daemon; the root facade hands the batch to a
// feedback.Tracker in process.
type Reporter func(i int, events []wire.ReportEvent) (plan *schedule.Schedule, done bool, err error)

// Enact is the one enactment loop of the Fig. 1 collaboration. The
// event-driven executor runs the tenants' current plans, merged into the
// index space of g (the disjoint union of their DAGs; offsets[i] is
// tenant i's first job), with actual runtimes rt on pool. Every start,
// finish and arrival is reported to its tenant's planner, and a returned
// reschedule (own or contention-triggered) is resubmitted into the
// running engine mid-flight. plans is updated in place. Enact returns the
// measured job records in finish order.
func Enact(ctx context.Context, g *dag.Graph, rt executor.Runtime, pool *grid.Pool,
	plans []*schedule.Schedule, offsets []int, report Reporter) ([]executor.JobRecord, error) {

	var eng *executor.Engine
	var loopErr error
	fail := func(err error) {
		loopErr = err
		eng.Cancel(err)
	}
	pending := make([][]wire.ReportEvent, len(plans))
	done := make([]bool, len(plans))

	flush := func(i int) {
		if len(pending[i]) == 0 || loopErr != nil || done[i] {
			return
		}
		plan, fin, err := report(i, pending[i])
		pending[i] = pending[i][:0]
		if err != nil {
			fail(err)
			return
		}
		done[i] = fin
		if plan == nil {
			return
		}
		plans[i] = plan
		if err := eng.Resubmit(mergeSchedules(plans, offsets)); err != nil {
			fail(fmt.Errorf("drive: resubmit merged plan: %w", err))
		}
	}
	handler := func(ev executor.Event) {
		if loopErr == nil && ctx.Err() != nil {
			fail(ctx.Err())
			return
		}
		if ev.Finished != dag.NoJob {
			i := ownerOf(int(ev.Finished), offsets)
			pending[i] = append(pending[i], wire.ReportEvent{
				Kind: wire.ReportJobFinished, Time: ev.Time,
				Job: int(ev.Finished) - offsets[i], Resource: int(ev.OnResource),
				Duration: ev.ActualDuration,
			})
			flush(i)
			return
		}
		// A grid arrival is a run-time event for every live tenant.
		for i := range plans {
			if done[i] {
				continue
			}
			for _, r := range ev.Arrived {
				pending[i] = append(pending[i], wire.ReportEvent{
					Kind: wire.ReportResourceJoin, Time: ev.Time, Resource: int(r.ID),
				})
			}
			flush(i)
		}
	}
	var err error
	eng, err = executor.New(sim.New(), g, rt, pool, mergeSchedules(plans, offsets), handler)
	if err != nil {
		return nil, fmt.Errorf("drive: executor: %w", err)
	}
	// Starts are queued, not flushed: they ride in front of the next
	// finish/arrival report, so the planner always knows which jobs are
	// running (and hold their slots) before it evaluates a reschedule.
	eng.StartHook = func(j dag.JobID, r grid.ID, t float64) {
		i := ownerOf(int(j), offsets)
		pending[i] = append(pending[i], wire.ReportEvent{
			Kind: wire.ReportJobStarted, Time: t, Job: int(j) - offsets[i], Resource: int(r),
		})
	}
	recs, err := eng.Run()
	switch {
	case loopErr != nil:
		return nil, loopErr
	case err != nil:
		return nil, fmt.Errorf("drive: enact: %w", err)
	}
	return recs, nil
}

// isolatedPlan computes the tenant's plan with no knowledge of the other
// tenants, no file catalog and no feedback.
func isolatedPlan(tn Tenant, pool *grid.Pool) (*schedule.Schedule, error) {
	name := tn.Policy
	if name == "" {
		name = "aheft"
	}
	pol, err := policy.Get(name)
	if err != nil {
		return nil, err
	}
	k := kernel.New(tn.Scenario.Graph, cost.Exact(tn.Scenario.Table))
	return pol.Plan(k, pool, policy.Options{
		TieWindow:   tn.Options.TieWindow,
		NoInsertion: tn.Options.NoInsertion,
		Eps:         tn.Options.Eps,
	})
}

// noisyTable materialises actual runtimes: every estimate scaled by a
// per-(job, resource) factor drawn once up front, so the adaptive run and
// the baseline see identical truths regardless of query order.
func noisyTable(sc *workload.Scenario, noise float64, r *rng.Source) *cost.Table {
	jobs, res := sc.Table.Jobs(), sc.Table.Resources()
	rows := make([][]float64, jobs)
	for j := 0; j < jobs; j++ {
		rows[j] = make([]float64, res)
		for k := 0; k < res; k++ {
			f := 1.0
			if noise > 0 {
				f = r.Uniform(1-noise, 1+noise)
				if f < 0.05 {
					f = 0.05
				}
			}
			rows[j][k] = sc.Table.Comp(dag.JobID(j), grid.ID(k)) * f
		}
	}
	return cost.MustTable(rows)
}

// churnPool jitters every planned arrival time (keeping the time-0 set at
// zero, and keeping late arrivals strictly positive so they stay run-time
// events the daemon must be *told* about).
func churnPool(p *grid.Pool, churn float64, r *rng.Source) (*grid.Pool, error) {
	if churn <= 0 {
		return p, nil
	}
	src := p.Arrivals()
	arr := make([]grid.Arrival, len(src))
	for i, a := range src {
		t := a.Time
		if t > 0 {
			t *= r.Uniform(1-churn, 1+churn)
			if t < 1e-6 {
				t = 1e-6
			}
		}
		arr[i] = grid.Arrival{Time: t, Resource: a.Resource}
	}
	return grid.NewPool(arr)
}

// planSchedule decodes a wire.Plan into an executable schedule.
func planSchedule(p *wire.Plan, g *dag.Graph) (*schedule.Schedule, error) {
	if len(p.Assignments) != g.Len() {
		return nil, fmt.Errorf("drive: plan covers %d of %d jobs", len(p.Assignments), g.Len())
	}
	as := make([]schedule.Assignment, len(p.Assignments))
	for i, a := range p.Assignments {
		if a.Job < 0 || a.Job >= g.Len() {
			return nil, fmt.Errorf("drive: plan names unknown job %d", a.Job)
		}
		as[i] = schedule.Assignment{
			Job: dag.JobID(a.Job), Resource: grid.ID(a.Resource), Start: a.Start, Finish: a.Finish,
		}
	}
	return schedule.FromAssignments(as), nil
}

// mergeGraphs builds the disjoint union of the tenants' DAGs; offsets[i]
// is tenant i's first job ID in the merged index space.
func mergeGraphs(tenants []Tenant) (*dag.Graph, []int, error) {
	g := dag.New("merged")
	offsets := make([]int, len(tenants))
	next := 0
	for i, tn := range tenants {
		offsets[i] = next
		tg := tn.Scenario.Graph
		for _, j := range tg.Jobs() {
			g.AddJob(fmt.Sprintf("t%d/%s", i, j.Name), j.Op)
		}
		for _, j := range tg.Jobs() {
			for _, e := range tg.Succs(j.ID) {
				if err := g.AddEdge(dag.JobID(next+int(e.From)), dag.JobID(next+int(e.To)), e.Data); err != nil {
					return nil, nil, fmt.Errorf("drive: merge graphs: %w", err)
				}
			}
		}
		next += tg.Len()
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("drive: merge graphs: %w", err)
	}
	return g, offsets, nil
}

// mergeTables stacks the tenants' runtime tables into one matrix.
func mergeTables(tables []*cost.Table, resources int) (*cost.Table, error) {
	var rows [][]float64
	for _, t := range tables {
		for j := 0; j < t.Jobs(); j++ {
			row := make([]float64, resources)
			for r := 0; r < resources; r++ {
				row[r] = t.Comp(dag.JobID(j), grid.ID(r))
			}
			rows = append(rows, row)
		}
	}
	return cost.NewTable(rows)
}

// mergeSchedules unions the tenants' plans in the merged job index space.
func mergeSchedules(plans []*schedule.Schedule, offsets []int) *schedule.Schedule {
	var as []schedule.Assignment
	for i, s := range plans {
		for _, a := range s.Assignments() {
			a.Job += dag.JobID(offsets[i])
			as = append(as, a)
		}
	}
	return schedule.FromAssignments(as)
}

// ownerOf maps a merged job ID to its tenant index.
func ownerOf(job int, offsets []int) int {
	for i := len(offsets) - 1; i >= 0; i-- {
		if job >= offsets[i] {
			return i
		}
	}
	return 0
}

// finishTimes folds merged job records into per-tenant completion times.
func finishTimes(recs []executor.JobRecord, offsets []int) []float64 {
	out := make([]float64, len(offsets))
	for _, rec := range recs {
		if i := ownerOf(int(rec.Job), offsets); rec.Finish > out[i] {
			out[i] = rec.Finish
		}
	}
	return out
}

// Replay builds the faithful execution report of plan up to clock —
// every job starting and finishing exactly when planned; starts strictly
// before clock, finishes at or before it — skipping events the applied
// prefix already covered. A +Inf clock with no prefix is the whole run; a
// +Inf clock with a pre-crash prefix is exactly the remaining events.
// Starts sort ahead of finishes at equal times, so the daemon knows a job
// holds its slot before it hears a neighbour released one.
func Replay(plan *wire.Plan, clock float64, applied []wire.ReportEvent) []wire.ReportEvent {
	type key struct {
		kind string
		job  int
	}
	done := make(map[key]bool, len(applied))
	for _, ev := range applied {
		done[key{ev.Kind, ev.Job}] = true
	}
	var evs []wire.ReportEvent
	for _, a := range plan.Assignments {
		if a.Start < clock && !done[key{wire.ReportJobStarted, a.Job}] {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource,
			})
		}
		if a.Finish <= clock && !done[key{wire.ReportJobFinished, a.Job}] {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Resource: a.Resource, Duration: a.Finish - a.Start,
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Kind == wire.ReportJobStarted && evs[j].Kind != wire.ReportJobStarted
	})
	return evs
}
