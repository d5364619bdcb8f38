// Package executor is the run-time half of the paper's Fig. 1
// architecture: an enactment environment that executes scheduled workflows
// on the simulated grid. It decomposes, as in the paper, into an Execution
// Manager (starts jobs when their inputs are staged and their resource is
// free, per the current schedule), a Resource Manager (tracks the dynamic
// pool and advance reservations, swaps reservations when a rescheduled
// plan arrives), and a Performance Monitor (measures actual job runtimes
// and reports them, plus significant variance, to the Planner).
//
// The executor publishes the run-time events the Planner subscribes to —
// resource arrivals and job completions — through an event handler, and accepts replacement schedules mid-run, which is exactly
// the Planner/Executor collaboration the paper proposes. Jobs that are
// already running when a new schedule arrives keep running (their
// reservation is not revoked), and file transfers already in flight
// complete at their original ETA; both match the snapshot semantics of
// the scheduling kernel. internal/drive's enactment loop runs this engine
// against a planner, and an integration test checks that the enactment
// reproduces the analytic runner in package planner decision for
// decision.
package executor

import (
	"fmt"
	"maps"
	"slices"

	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/schedule"
	"aheft/internal/sim"
)

// Runtime supplies actual job durations, which may differ from the
// Planner's estimates when simulating inaccurate prediction. Use the cost
// table itself for the paper's accurate-estimation assumption.
type Runtime interface {
	Comp(job dag.JobID, res grid.ID) float64
	Comm(e dag.Edge, rFrom, rTo grid.ID) float64
}

// Event is a run-time occurrence the Planner subscribed to.
type Event struct {
	Time float64
	// Arrived is non-empty for a resource-pool change event.
	Arrived []grid.Resource
	// Finished is valid (non-negative) for a job-completion event.
	Finished dag.JobID
	// OnResource is the resource the finished job ran on.
	OnResource grid.ID
	// ActualDuration is the measured runtime of the finished job, as
	// observed by the Performance Monitor.
	ActualDuration float64
}

// JobRecord is the measured outcome of one job.
type JobRecord struct {
	Job      dag.JobID
	Resource grid.ID
	Start    float64
	Finish   float64
}

// Engine executes one workflow on the simulated grid.
type Engine struct {
	simr *sim.Simulator
	g    *dag.Graph
	rt   Runtime
	pool *grid.Pool

	sched *schedule.Schedule // current plan (replaceable via Resubmit)
	// order is sched's per-resource planned order (Timelines), and res its
	// resources ascending; both are recomputed whenever sched changes.
	order map[grid.ID][]schedule.Assignment
	res   []grid.ID
	// handler receives run-time events. It may call Resubmit to replace
	// the remaining schedule — the Planner's reaction in the Fig. 2 loop.
	handler func(Event)

	// StartHook, when non-nil, is invoked the moment a job begins
	// executing — before its completion is even scheduled. Unlike
	// handler events it carries no rescheduling rights; it exists so
	// the enactment loop (drive.Enact) can report job-started and the
	// planner knows which reservations are committed. Set it before Run.
	StartHook func(j dag.JobID, r grid.ID, t float64)

	available map[grid.ID]bool
	busy      map[grid.ID]dag.JobID // resource -> running job

	started  map[dag.JobID]float64
	finished map[dag.JobID]*JobRecord
	// fileAt[edge][resource] = time the edge's file became (or will
	// become) available on the resource; transfers in flight have a
	// future time. Files are per edge, matching the paper's per-pair data
	// matrix and the AHEFT snapshot model.
	fileAt map[fileKey]map[grid.ID]float64

	records []JobRecord
	err     error
}

// fileKey names the file one dependence edge carries, from producer to
// consumer.
type fileKey struct{ From, To dag.JobID }

// New prepares an engine bound to a simulator. The schedule must cover all
// jobs of g; it may be replaced during the run via Resubmit. handler may
// be nil.
func New(simr *sim.Simulator, g *dag.Graph, rt Runtime, pool *grid.Pool, s *schedule.Schedule, handler func(Event)) (*Engine, error) {
	if simr == nil || g == nil || rt == nil || pool == nil || s == nil {
		return nil, fmt.Errorf("executor: nil argument")
	}
	e := &Engine{
		simr:      simr,
		g:         g,
		rt:        rt,
		pool:      pool,
		sched:     s,
		handler:   handler,
		available: make(map[grid.ID]bool),
		busy:      make(map[grid.ID]dag.JobID),
		started:   make(map[dag.JobID]float64),
		finished:  make(map[dag.JobID]*JobRecord),
		fileAt:    make(map[fileKey]map[grid.ID]float64),
	}
	e.setPlan(s)
	return e, nil
}

// Run executes the workflow to completion and returns the measured job
// records in finish order.
func (e *Engine) Run() ([]JobRecord, error) {
	for _, r := range e.pool.Initial() {
		e.available[r.ID] = true
	}
	for _, t := range e.pool.ChangeTimes() {
		t := t
		e.simr.At(t, sim.PriResourceChange, func() { e.onArrival(t) })
	}
	e.simr.At(0, sim.PriDispatch, e.pump)
	if err := e.simr.Run(); err != nil {
		return nil, err
	}
	if e.err != nil {
		return nil, e.err
	}
	if len(e.finished) != e.g.Len() {
		return nil, fmt.Errorf("executor: deadlock — %d of %d jobs finished (schedule infeasible?)",
			len(e.finished), e.g.Len())
	}
	return e.records, nil
}

// Makespan returns the finish time of the last job (0 before Run).
func (e *Engine) Makespan() float64 {
	m := 0.0
	for _, r := range e.records {
		if r.Finish > m {
			m = r.Finish
		}
	}
	return m
}

// Resubmit replaces the current schedule with s1 for all jobs that have
// not yet started; running and finished jobs are unaffected (the Resource
// Manager revokes only reservations that have not begun). Safe to call
// from an event handler.
func (e *Engine) Resubmit(s1 *schedule.Schedule) error {
	for _, j := range e.g.Jobs() {
		if _, ok := s1.Get(j.ID); !ok {
			return fmt.Errorf("executor: resubmitted schedule misses job %s", j.Name)
		}
	}
	e.setPlan(s1)
	// The Execution Manager is responsible for staging inputs: if a
	// rescheduled job now runs where a finished predecessor's output was
	// never shipped, start that transfer now (it cannot start in the past
	// — Eq. 1 Case 2 of the AHEFT model).
	now := e.simr.Now()
	for _, j := range e.g.Jobs() {
		if _, started := e.started[j.ID]; started {
			continue
		}
		if _, done := e.finished[j.ID]; done {
			continue
		}
		a1 := s1.MustGet(j.ID)
		for _, edge := range e.g.Preds(j.ID) {
			pf, done := e.finished[edge.From]
			if !done {
				continue
			}
			key := fileKey{From: edge.From, To: edge.To}
			if _, have := e.fileAt[key][a1.Resource]; have {
				continue
			}
			eta := now + e.rt.Comm(edge, pf.Resource, a1.Resource)
			e.setFile(key, a1.Resource, eta)
			if eta > now {
				e.simr.At(eta, sim.PriTransferDone, e.pump)
			}
		}
	}
	// A new plan may allow different jobs to start; re-evaluate.
	e.simr.At(now, sim.PriDispatch, e.pump)
	return nil
}

// Cancel aborts the execution: the event loop halts at the current
// simulated time and Run returns err. Safe to call from an event handler;
// drive.Enact uses it to honour context cancellation.
func (e *Engine) Cancel(err error) {
	if e.err == nil {
		e.err = err
	}
	e.simr.Stop()
}

func (e *Engine) onArrival(t float64) {
	arrived := e.pool.ArrivalsAt(t)
	for _, r := range arrived {
		e.available[r.ID] = true
	}
	if e.handler != nil {
		e.handler(Event{Time: t, Arrived: arrived, Finished: dag.NoJob})
	}
	e.simr.At(t, sim.PriDispatch, e.pump)
}

// pump starts every job whose start conditions hold. Conditions for job j
// with assignment a = sched[j]:
//
//   - j is not started, its resource a.Resource is available and idle;
//   - every earlier job in a.Resource's planned order has finished or at
//     least started (reservation order is respected, so a late
//     predecessor on the same resource delays its followers rather than
//     being overtaken);
//   - every input file of j is present on a.Resource.
//
// Under accurate estimates these conditions become true exactly at the
// scheduled start times.
func (e *Engine) pump() {
	if e.err != nil {
		return
	}
	now := e.simr.Now()
	for {
		startedAny := false
		for _, r := range e.res {
			j, ok := e.nextOn(r)
			if !ok {
				continue
			}
			if !e.canStart(j, r, now) {
				continue
			}
			e.start(j, r, now)
			startedAny = true
		}
		if !startedAny {
			return
		}
	}
}

func (e *Engine) setPlan(s *schedule.Schedule) {
	e.sched, e.order = s, s.Timelines()
	e.res = slices.Sorted(maps.Keys(e.order))
}

// nextOn returns the first unstarted job in the resource's planned order.
func (e *Engine) nextOn(r grid.ID) (dag.JobID, bool) {
	for _, a := range e.order[r] {
		if _, done := e.finished[a.Job]; done {
			continue
		}
		if _, running := e.started[a.Job]; running {
			// A running job blocks everything behind it on this resource.
			return dag.NoJob, false
		}
		return a.Job, true
	}
	return dag.NoJob, false
}

func (e *Engine) canStart(j dag.JobID, r grid.ID, now float64) bool {
	if !e.available[r] {
		return false
	}
	if _, occupied := e.busy[r]; occupied {
		return false
	}
	for _, edge := range e.g.Preds(j) {
		t, ok := e.fileAt[fileKey{From: edge.From, To: edge.To}][r]
		if !ok || t > now {
			return false
		}
	}
	return true
}

func (e *Engine) start(j dag.JobID, r grid.ID, now float64) {
	e.started[j] = now
	e.busy[r] = j
	if e.StartHook != nil {
		e.StartHook(j, r, now)
	}
	dur := e.rt.Comp(j, r)
	e.simr.At(now+dur, sim.PriJobFinish, func() { e.finish(j, r, now, now+dur) })
}

func (e *Engine) finish(j dag.JobID, r grid.ID, start, end float64) {
	delete(e.busy, r)
	rec := JobRecord{Job: j, Resource: r, Start: start, Finish: end}
	e.finished[j] = &rec
	e.records = append(e.records, rec)
	if len(e.finished) == e.g.Len() {
		// Workflow complete: halt the event loop so later pool-change
		// events are not evaluated against a finished DAG.
		e.simr.Stop()
		if e.handler != nil {
			e.handler(Event{Time: end, Finished: j, OnResource: r, ActualDuration: end - start})
		}
		return
	}
	// Static file-transfer policy: ship each output file immediately to
	// the scheduled resource of its consumer (§4.1 assumption 2).
	for _, edge := range e.g.Succs(j) {
		key := fileKey{From: edge.From, To: edge.To}
		e.setFile(key, r, end)
		sa, ok := e.sched.Get(edge.To)
		if !ok {
			e.err = fmt.Errorf("executor: successor %d of %d unscheduled", edge.To, j)
			return
		}
		eta := end + e.rt.Comm(edge, r, sa.Resource)
		e.setFile(key, sa.Resource, eta)
		if eta > end {
			e.simr.At(eta, sim.PriTransferDone, e.pump)
		}
	}
	if e.handler != nil {
		e.handler(Event{Time: end, Finished: j, OnResource: r, ActualDuration: end - start})
	}
	e.simr.At(end, sim.PriDispatch, e.pump)
}

// setFile records file availability, keeping the earliest time.
func (e *Engine) setFile(key fileKey, r grid.ID, t float64) {
	row := e.fileAt[key]
	if row == nil {
		row = make(map[grid.ID]float64)
		e.fileAt[key] = row
	}
	if old, ok := row[r]; !ok || t < old {
		row[r] = t
	}
}
