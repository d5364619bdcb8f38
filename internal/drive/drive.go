// Package drive is the enactment side of the paper's Fig. 1 architecture
// run against a live aheftd daemon: it submits workflows in live mode,
// fetches the daemon's plans, realises them under a drawn truth —
// runtimes with configurable noise, churned resource arrivals and, for a
// workflow with a file catalog, the true data model — and reports every
// run-time event (job starts, measured finishes, resource joins) back
// through POST /v1/workflows/{id}/report, adopting whatever reschedule
// the daemon returns. It also prices the nobody-listens baseline under the
// same truth, so callers can measure what adaptivity bought.
//
// There is one of each part: Client is the only daemon HTTP client, Enact
// the only enactment engine (Run drives it against the daemon, one tenant
// on its own pool or several co-scheduled on a named shared grid; the
// root facade drives it against an in-process feedback.Tracker), Truth
// the only judge of a plan (a kernel whose Price rules Enact walks),
// Replay the only source of faithful plan-to-report event lists
// (cmd/chaos uses it). The daemon's acceptance tests and cmd/chaos share
// this harness. A Run with a fixed Config and tenants is deterministic as
// long as the tenants' histories are not perturbed by concurrent
// workflows: the noise tables and churned pool are pre-materialised from
// the seed, and the enactment itself is a deterministic event walk.
package drive

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/schedule"
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
	// without feedback (never-reschedule), on a shared grid every tenant's
	// plan computed as if it were alone (isolated planning, with no file
	// catalog — what the daemon produced before shared grids and data
	// models existed), the plans priced together by the truth. DaemonMakespan is what the daemon's terminal
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
// All tenants are enacted *together* under one truth, where a resource
// runs one job at a time across every tenant and, with file catalogs, a
// link carries one transfer at a time. The truth keeps exclusivity and
// each resource's planned order, so enacting the union of all tenants'
// plans as one merged schedule makes cross-workflow contention physically
// real: oblivious plans that reserved the same slot queue behind each
// other, contention-aware plans run side by side.
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
	merged, offsets, files, err := mergeGraphs(tenants)
	if err != nil {
		return nil, err
	}
	mergedNoisy, err := mergeTables(noisy, cfg.Pool.Size())
	if err != nil {
		return nil, err
	}
	var model *data.Model
	if files != nil {
		if model, err = data.NewModel(files, enacted, merged, 0); err != nil {
			return nil, fmt.Errorf("drive: data model: %w", err)
		}
	}
	truth := Truth(merged, cost.Exact(mergedNoisy), model, enacted)
	defer truth.Release()

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

	// The nobody-listens baseline: the plans as the truth prices them,
	// which is what enacting them with nobody listening realises.
	baseline := plans
	if shared {
		baseline = make([]*schedule.Schedule, len(tenants))
		for i, tn := range tenants {
			if baseline[i], err = isolatedPlan(tn, cfg.Pool); err != nil {
				return nil, fmt.Errorf("drive: isolated plan %s: %w", tn.Name, err)
			}
		}
	}
	base := truth.Retime(enacted.AvailableAt(math.Inf(1)), nil, mergeSchedules(baseline, offsets))
	if base == nil {
		return nil, fmt.Errorf("drive: baseline places a job on a resource that never joins")
	}
	for i, m := range finishTimes(base, offsets) {
		out.Tenants[i].BaselineMakespan = m
	}

	enactedPlan, err := Enact(ctx, truth, enacted, plans, offsets,
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
	for i, m := range finishTimes(enactedPlan, offsets) {
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

// Truth returns the kernel an enactment is judged by: g under the drawn
// runtimes rt and, for a workflow with a file catalog, under m, the true
// data model of pool (nil for a classic workflow). A resource that joins
// pool late is busy in it until the join, so a job placed there waits.
func Truth(g *dag.Graph, rt cost.Estimator, m *data.Model, pool *grid.Pool) *kernel.Kernel {
	k := kernel.New(g, rt)
	k.SetOccupancy(joins{pool})
	if m != nil {
		k.SetData(m)
	}
	return k
}

// joins holds each late resource of a pool busy from the beginning of
// time until it joins.
type joins struct{ pool *grid.Pool }

func (j joins) AppendBusy(r grid.ID, buf []kernel.Busy) []kernel.Busy {
	if t := j.pool.ArrivalTime(r); t > 0 {
		buf = append(buf, kernel.Busy{Start: math.Inf(-1), Finish: t})
	}
	return buf
}

// Enact is the one enactment engine of the Fig. 1 collaboration. It
// realises the tenants' current plans, merged into the index space of
// truth's graph (the disjoint union of their DAGs; offsets[i] is tenant
// i's first job), by kernel.Price's rules under truth on pool: it prices
// the merged plan and walks the priced starts and finishes and the pool's
// arrivals in time order, reporting each to its tenant's planner. At one
// instant finishes come first, in the order their jobs started, then the
// arrival, then starts in resource order. A start waits in its tenant's
// queue and rides in front of the next report; a finish is reported at
// once; a join goes to every tenant not yet done. When a report returns a
// plan, Enact prices the new merged plan at that instant from the truth
// state (see adopt). With no adoption the enacted schedule is therefore
// truth.Retime of the merged plan: its makespan is truth.Price's, bit for
// bit. plans is updated in place; Enact returns the enacted schedule.
func Enact(ctx context.Context, truth *kernel.Kernel, pool *grid.Pool,
	plans []*schedule.Schedule, offsets []int, report Reporter) (*schedule.Schedule, error) {
	if truth == nil || pool == nil || report == nil || len(plans) == 0 || len(plans) != len(offsets) {
		return nil, fmt.Errorf("drive: enact needs a truth, a pool, a reporter and an offset per plan")
	}
	n := truth.Graph().Len()
	e := &enactment{
		k: truth, st: truth.NewState(pool.Size()), pool: pool, rs: pool.AvailableAt(math.Inf(1)),
		plans: plans, offsets: offsets, report: report, started: make([]bool, n),
		pending: make([][]wire.ReportEvent, len(plans)), done: make([]bool, len(plans)),
	}
	defer e.st.Release()
	if err := e.adopt(0); err != nil {
		return nil, err
	}
	for e.st.FinishedCount() < n {
		for _, ev := range e.events() {
			adopted, err := e.step(ctx, ev)
			if err != nil {
				return nil, err
			}
			if adopted || e.st.FinishedCount() == n {
				break // re-walk what the new pricing left, or stop at the last finish
			}
		}
	}
	return schedule.FromAssignments(slices.Collect(e.priced.ByJob())), nil
}

// enactment is one Enact call's state.
type enactment struct {
	k       *kernel.Kernel
	st      *kernel.State // the truth so far
	pool    *grid.Pool
	rs      []grid.Resource // every resource that ever joins
	plans   []*schedule.Schedule
	offsets []int
	report  Reporter
	plan    *schedule.Schedule // the merged current plan
	priced  *schedule.Schedule // plan as truth prices it from st
	started []bool
	arrived int // pool change times delivered
	pending [][]wire.ReportEvent
	done    []bool
}

// The kinds of event, in their order at one instant. An instant is the
// finish of a job that takes no time: it follows its own start.
const (
	evFinish = iota
	evArrival
	evStart
	evInstant
)

type event struct {
	at, start float64 // start orders the finishes of one instant
	kind      int
	res       grid.ID
	job       dag.JobID
}

// events lists what is left of the priced plan and the pool's arrivals,
// in the order they happen.
func (e *enactment) events() []event {
	var evs []event
	for a := range e.priced.ByJob() {
		if e.st.Finished(a.Job) {
			continue
		}
		if !e.started[a.Job] {
			evs = append(evs, event{at: a.Start, kind: evStart, res: a.Resource, job: a.Job})
		}
		kind := evFinish
		if a.Finish == a.Start {
			kind = evInstant
		}
		evs = append(evs, event{at: a.Finish, start: a.Start, kind: kind, res: a.Resource, job: a.Job})
	}
	for _, t := range e.pool.ChangeTimes()[e.arrived:] {
		evs = append(evs, event{at: t, kind: evArrival})
	}
	slices.SortFunc(evs, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.kind, b.kind), cmp.Compare(a.start, b.start),
			cmp.Compare(a.res, b.res), cmp.Compare(a.job, b.job))
	})
	return evs
}

// step realises one event and reports whether a report it made adopted
// a plan.
func (e *enactment) step(ctx context.Context, ev event) (bool, error) {
	if ev.kind == evStart {
		e.started[ev.job] = true
		e.queue(ev.job, wire.ReportEvent{Kind: wire.ReportJobStarted, Time: ev.at, Resource: int(ev.res)})
		return false, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if ev.kind == evArrival {
		return e.arrive(ev.at)
	}
	return e.finish(ev.job)
}

// queue appends ev, about merged job j, to the batch of j's tenant and
// returns the tenant.
func (e *enactment) queue(j dag.JobID, ev wire.ReportEvent) int {
	i := ownerOf(int(j), e.offsets)
	ev.Job = int(j) - e.offsets[i]
	e.pending[i] = append(e.pending[i], ev)
	return i
}

// finish records job j's priced finish in the truth and reports it. The
// output is on j's resource from then on and, along every plain edge,
// sets off at once for the consumer's resource in the current plan (the
// static transfer policy of §4.1); a file edge's bytes move as Price
// staged them.
func (e *enactment) finish(j dag.JobID) (bool, error) {
	a := e.priced.MustGet(j)
	e.st.Finish(j, a.Resource, a.Start, a.Finish)
	for _, ed := range e.k.Graph().Succs(j) {
		e.st.SetTransfer(j, ed.To, a.Resource, a.Finish)
		if !e.fileEdge(ed) {
			to := e.plan.MustGet(ed.To).Resource
			e.st.SetTransfer(j, ed.To, to, a.Finish+cost.Comm(ed, a.Resource, to))
		}
	}
	i := e.queue(j, wire.ReportEvent{
		Kind: wire.ReportJobFinished, Time: a.Finish, Resource: int(a.Resource), Duration: a.Finish - a.Start,
	})
	return e.flush(i, a.Finish)
}

// arrive reports the resources joining at t to every tenant not yet done.
func (e *enactment) arrive(t float64) (bool, error) {
	e.arrived++
	joined := e.pool.ArrivalsAt(t)
	adopted := false
	for i := range e.plans {
		if e.done[i] {
			continue
		}
		for _, r := range joined {
			e.pending[i] = append(e.pending[i], wire.ReportEvent{Kind: wire.ReportResourceJoin, Time: t, Resource: int(r.ID)})
		}
		ok, err := e.flush(i, t)
		if err != nil {
			return false, err
		}
		adopted = adopted || ok
	}
	return adopted, nil
}

// flush sends tenant i's queued events and adopts the plan it answers.
func (e *enactment) flush(i int, t float64) (bool, error) {
	if len(e.pending[i]) == 0 || e.done[i] {
		return false, nil
	}
	plan, done, err := e.report(i, e.pending[i])
	e.pending[i] = e.pending[i][:0]
	if err != nil {
		return false, err
	}
	e.done[i] = done
	if plan == nil {
		return false, nil
	}
	e.plans[i] = plan
	return true, e.adopt(t)
}

// adopt makes the merged plans current at t and prices them from the
// truth state at t, which keeps what happened: finished jobs at their
// times, running jobs pinned, a file that set off along a plain edge at
// its arrival, and a transfer the last pricing staged before t at its
// priced arrival. A finished producer's file that is not on its way to
// where a waiting consumer now runs sets off at t (Eq. 1 Case 2).
func (e *enactment) adopt(t float64) error {
	g := e.k.Graph()
	plan := mergeSchedules(e.plans, e.offsets)
	if plan.Len() != g.Len() {
		return fmt.Errorf("drive: the plans cover %d of %d jobs", plan.Len(), g.Len())
	}
	st := e.st
	if e.priced != nil {
		for _, x := range e.priced.Transfers() {
			if x.Start < t {
				st.SetTransfer(g.Preds(x.Job)[x.Input].From, x.Job, x.To, x.Finish)
			}
		}
	}
	st.Clock = t
	st.ClearPinned()
	for j := range dag.JobID(g.Len()) {
		switch {
		case st.Finished(j):
		case e.started[j]:
			st.Pin(e.priced.MustGet(j))
		default:
			r := plan.MustGet(j).Resource
			for i, ed := range g.Preds(j) {
				from, _, _ := st.FinishedOutcome(ed.From)
				if from == grid.NoResource || e.fileEdge(ed) {
					continue
				}
				if _, ok := st.PredTransferAt(j, i, r); !ok {
					st.SetTransfer(ed.From, j, r, t+cost.Comm(ed, from, r))
				}
			}
		}
	}
	e.plan = plan
	if e.priced = e.k.Retime(e.rs, st, plan); e.priced == nil {
		return fmt.Errorf("drive: the plan places a job on a resource that never joins")
	}
	return nil
}

// fileEdge reports whether the truth stages ed's bytes as a file.
func (e *enactment) fileEdge(ed dag.Edge) bool {
	m := e.k.Data()
	return m != nil && m.Index(ed.File) >= 0
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
	return grid.NewPoolLinks(arr, p.Links())
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

// mergeGraphs builds the disjoint union of the tenants' DAGs and file
// catalogs: offsets[i] is tenant i's first job ID in the merged index
// space, and its file f is "t<i>/f" there. The catalog is nil when no
// tenant has one; a tenant without one keeps plain edges.
func mergeGraphs(tenants []Tenant) (*dag.Graph, []int, *data.Set, error) {
	g := dag.New("merged")
	offsets := make([]int, len(tenants))
	var files *data.Set
	next := 0
	for i, tn := range tenants {
		offsets[i] = next
		tg, cat := tn.Scenario.Graph, tn.Scenario.Files
		fileID := func(id string) string {
			if cat == nil || id == "" {
				return ""
			}
			return fmt.Sprintf("t%d/%s", i, id)
		}
		for _, j := range tg.Jobs() {
			g.AddJob(fmt.Sprintf("t%d/%s", i, j.Name), j.Op)
		}
		for _, j := range tg.Jobs() {
			for _, e := range tg.Succs(j.ID) {
				if err := g.AddFileEdge(dag.JobID(next+int(e.From)), dag.JobID(next+int(e.To)), e.Data, fileID(e.File)); err != nil {
					return nil, nil, nil, fmt.Errorf("drive: merge graphs: %w", err)
				}
			}
		}
		if cat != nil {
			if files == nil {
				files = &data.Set{DefaultBW: cat.DefaultBW}
			} else if files.DefaultBW != cat.DefaultBW {
				return nil, nil, nil, fmt.Errorf("drive: tenants' catalogs disagree on the default bandwidth")
			}
			for _, f := range cat.Files {
				f.ID = fileID(f.ID)
				files.Files = append(files.Files, f)
			}
		}
		next += tg.Len()
	}
	if err := g.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("drive: merge graphs: %w", err)
	}
	return g, offsets, files, nil
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

// mergeSchedules unions the tenants' plans, transfers included, in the
// merged job index space. File IDs stay: a daemon's plans carry no
// transfers, and an in-process plan is one tenant's.
func mergeSchedules(plans []*schedule.Schedule, offsets []int) *schedule.Schedule {
	var as []schedule.Assignment
	var xs []schedule.Transfer
	for i, s := range plans {
		for a := range s.ByJob() {
			a.Job += dag.JobID(offsets[i])
			as = append(as, a)
		}
		for _, x := range s.Transfers() {
			x.Job += dag.JobID(offsets[i])
			xs = append(xs, x)
		}
	}
	out := schedule.FromAssignments(as)
	if xs != nil {
		out.SetTransfers(xs)
	}
	return out
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

// finishTimes folds a merged schedule into per-tenant completion times.
func finishTimes(s *schedule.Schedule, offsets []int) []float64 {
	out := make([]float64, len(offsets))
	for a := range s.ByJob() {
		if i := ownerOf(int(a.Job), offsets); a.Finish > out[i] {
			out[i] = a.Finish
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
