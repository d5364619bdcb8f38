// Package feedback is the daemon-side runtime-feedback subsystem: the
// half of the paper's Fig. 1 loop that was missing from aheftd. A
// Tracker owns one live workflow's planning state — the scheduling
// kernel, the dense execution snapshot, the current schedule — and folds
// validated wire.Report events into it:
//
//   - job-finished events feed measured runtimes into the tenant's
//     Performance History Repository (internal/history) and are judged
//     for significant variance against its EWMA;
//   - the Predictor (predict.HistoryBased, with the submitted estimate
//     matrix as prior) re-estimates the remaining jobs from that history
//     before every evaluation, so predictions sharpen while the workflow
//     runs;
//   - variance, resource-join and resource-leave events trigger a
//     rescheduling evaluation through the same kernel/policy pipeline
//     the analytic engine uses, under the paper's AHEFT semantics:
//     finished jobs keep their actual intervals, running jobs keep their
//     reservations, and a candidate is adopted only when it beats the
//     current plan as kernel.Price prices it under the current estimates
//     (Fig. 2 line 7 — the price, not the stale nominal makespan, is the
//     honest S0 side of the comparison once estimates drift).
//
// A Tracker is not safe for concurrent use: the owning shard's single
// worker goroutine is the only caller, preserving the kernel's
// single-goroutine discipline. The history.Repository it feeds IS
// shared — across workflows of the tenant and with metrics readers —
// and is internally synchronised.
package feedback

import (
	"fmt"
	"math"
	"slices"
	"time"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/kernel"
	"aheft/internal/occupancy"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/predict"
	"aheft/internal/schedule"
	"aheft/internal/wire"
)

// DefaultVarianceThreshold is the relative runtime deviation beyond which
// a job-finished event triggers a rescheduling evaluation when the
// submission names no threshold.
const DefaultVarianceThreshold = 0.2

// Config assembles a Tracker.
type Config struct {
	// Graph is the workflow DAG.
	Graph *dag.Graph
	// Prior is the client-supplied estimate matrix, the Predictor's
	// fallback for (op, resource) pairs without history.
	Prior cost.Estimator
	// Pool declares the resource universe: its time-0 arrivals are the
	// initially available set, its later arrivals are *planned* — in live
	// mode a resource actually joins only when a resource-join report
	// says so.
	Pool *grid.Pool
	// History is the tenant's Performance History Repository (shared,
	// thread-safe).
	History *history.Repository
	// Policy drives planning and replanning.
	Policy policy.Policy
	// FastPlan, when non-nil, supplies the *initial* plan instead of
	// Policy — the fast half of the two-speed admission path: under
	// overload the daemon plans with a cheap greedy placement so the
	// workflow starts immediately, then asynchronously re-evaluates with
	// Policy's full pass (Reevaluate with planner.TriggerUpgrade) and
	// adopts the better schedule through the normal decision machinery.
	// Replans always use Policy; FastPlan must produce a real enactable
	// schedule (just-in-time policies are rejected).
	FastPlan policy.Policy
	// Opts tunes the policy.
	Opts policy.Options
	// VarianceThreshold gates finish-variance triggering; <= 0 means
	// DefaultVarianceThreshold.
	VarianceThreshold float64
	// UseMean selects the history mean instead of the recency-weighted
	// EWMA for re-estimation.
	UseMean bool
	// Occupancy, when non-nil, attaches the workflow to a shared grid's
	// reservation ledger: the tracker publishes its own plan's compute
	// intervals through the view (whole-plan on initial planning and
	// every adoption, per-job narrowing as jobs start and finish) and the
	// kernel's slot search treats every other workflow's reservations as
	// busy time. Contention becomes endogenous: concurrent workflows on
	// the grid plan around each other instead of against private pool
	// snapshots.
	Occupancy *occupancy.View
}

type jobPhase uint8

const (
	phasePending jobPhase = iota
	phaseStarted
	phaseFinished
)

// Outcome summarises what one Apply call did.
type Outcome struct {
	// Applied counts the events folded in (the whole batch unless the
	// workflow completed mid-batch).
	Applied int
	// Decisions lists the rescheduling evaluations the batch caused.
	Decisions []planner.Decision
	// Rescheduled reports whether any evaluation was adopted; Trigger is
	// the last adopted one's cause.
	Rescheduled bool
	Trigger     planner.Trigger
	// Done reports workflow completion; Makespan is then the measured
	// completion time.
	Done     bool
	Makespan float64
	// Recorded lists the history observations this batch fed into the
	// tenant's repository, in application order — the durability layer
	// journals them so a recovered repository is bit-identical to one
	// that never crashed (replaying deltas in order reproduces the
	// streaming mean/EWMA arithmetic exactly).
	Recorded []HistoryDelta
}

// Tracker is one live workflow's planning-side state machine.
type Tracker struct {
	g    *dag.Graph
	pool *grid.Pool
	repo *history.Repository
	pol  policy.Policy
	opts policy.Options
	est  *predict.HistoryBased
	thr  float64

	k  *kernel.Kernel
	ks *kernel.State

	sched      *schedule.Schedule
	generation int
	initial    float64

	clock    float64
	phase    []jobPhase
	startAt  []float64
	startRes []grid.ID
	finishAt []float64
	// pinDur holds a revised expected runtime for a running job (variance
	// report); 0 means "ask the estimator".
	pinDur    []float64
	nStarted  int
	nFinished int

	resByID []grid.Resource
	avail   []bool
	nAvail  int

	// Shared-grid state: the ledger view this workflow publishes its
	// reservations through (nil for private-pool workflows).
	occ     *occupancy.View
	resBuf  []occupancy.Reservation
	xferBuf []occupancy.Transfer
	chBuf   []int

	decisions []planner.Decision
	adoptions int
	done      bool
	makespan  float64
}

// New plans the workflow over the pool's time-0 resources and returns
// the tracker holding the live run. The initial plan already consults
// the tenant's history (warmed by earlier workflows running the same
// operations); the submitted matrix fills the gaps.
func New(cfg Config) (*Tracker, error) {
	t, err := build(cfg)
	if err != nil {
		return nil, err
	}
	pl := cfg.Policy
	if cfg.FastPlan != nil {
		pl = cfg.FastPlan
	}
	s0, err := pl.Plan(t.k, cfg.Pool, cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("feedback: initial plan: %w", err)
	}
	t.sched = s0
	t.generation = 1
	t.initial = s0.Makespan()
	t.publishReservations()
	return t, nil
}

// build validates the configuration and assembles an unplanned tracker —
// the shared half of New (which then plans) and Restore (which then
// installs a journalled state).
func build(cfg Config) (*Tracker, error) {
	switch {
	case cfg.Graph == nil || cfg.Graph.Len() == 0:
		return nil, fmt.Errorf("feedback: empty workflow")
	case cfg.Prior == nil:
		return nil, fmt.Errorf("feedback: nil prior estimator")
	case cfg.Pool == nil || cfg.Pool.Size() == 0:
		return nil, fmt.Errorf("feedback: empty pool")
	case len(cfg.Pool.Initial()) == 0:
		return nil, fmt.Errorf("feedback: no resources at time 0")
	case cfg.History == nil:
		return nil, fmt.Errorf("feedback: nil history repository")
	case cfg.Policy == nil:
		return nil, fmt.Errorf("feedback: nil policy")
	case policy.IsJustInTime(cfg.Policy):
		return nil, fmt.Errorf("feedback: policy %q is just-in-time and cannot plan for enactment", cfg.Policy.Name())
	case cfg.FastPlan != nil && policy.IsJustInTime(cfg.FastPlan):
		return nil, fmt.Errorf("feedback: fast-plan policy %q is just-in-time and cannot plan for enactment", cfg.FastPlan.Name())
	}
	n := cfg.Graph.Len()
	t := &Tracker{
		g:    cfg.Graph,
		pool: cfg.Pool,
		repo: cfg.History,
		pol:  cfg.Policy,
		opts: cfg.Opts,
		thr:  cfg.VarianceThreshold,
		est: &predict.HistoryBased{
			Graph:   cfg.Graph,
			Repo:    cfg.History,
			Prior:   cfg.Prior,
			UseEWMA: !cfg.UseMean,
		},
		phase:    make([]jobPhase, n),
		startAt:  make([]float64, n),
		startRes: make([]grid.ID, n),
		finishAt: make([]float64, n),
		pinDur:   make([]float64, n),
		resByID:  make([]grid.Resource, cfg.Pool.Size()),
		avail:    make([]bool, cfg.Pool.Size()),
	}
	if t.thr <= 0 {
		t.thr = DefaultVarianceThreshold
	}
	for _, a := range cfg.Pool.Arrivals() {
		t.resByID[a.Resource.ID] = a.Resource
	}
	for _, r := range cfg.Pool.Initial() {
		t.avail[r.ID] = true
		t.nAvail++
	}
	t.k = kernel.New(cfg.Graph, t.est)
	if cfg.Opts.Data != nil {
		// Bind before NewState so the dense snapshot's file ledger is
		// shaped for the model.
		t.k.SetData(cfg.Opts.Data)
	}
	t.ks = t.k.NewState(cfg.Pool.Size())
	if cfg.Occupancy != nil {
		// Attach before planning: the initial plan already routes around
		// the other workflows' reservations.
		t.occ = cfg.Occupancy
		t.k.SetOccupancy(cfg.Occupancy)
	}
	return t, nil
}

// publishReservations replaces this workflow's entries in the shared
// ledger with the current plan's compute intervals: pending jobs at
// their scheduled slots, running jobs at their live pins. Finished jobs
// are history, not claims.
func (t *Tracker) publishReservations() {
	if t.occ == nil {
		return
	}
	rs := t.resBuf[:0]
	for j := 0; j < t.g.Len(); j++ {
		id := dag.JobID(j)
		switch t.phase[j] {
		case phaseFinished:
			continue
		case phaseStarted:
			a := t.running(j, t.clock)
			rs = append(rs, occupancy.Reservation{Job: j, Resource: a.Resource, Start: a.Start, Finish: a.Finish, Pinned: true})
		default:
			a := t.sched.MustGet(id)
			rs = append(rs, occupancy.Reservation{
				Job: j, Resource: a.Resource, Start: a.Start, Finish: a.Finish,
			})
		}
	}
	t.resBuf = rs
	t.occ.Publish(rs)
	t.publishTransfers()
}

// publishTransfers replaces this workflow's transfer reservations with
// the current plan's stagings for jobs that have not started yet: each
// schedule.Transfer claims every capacity channel on its src→dst path
// (one ledger entry per channel, as data.Model names them). Once a job
// starts its inputs are materialized and the claims are released — the
// per-job narrowing that mirrors the compute side.
func (t *Tracker) publishTransfers() {
	m := t.k.Data()
	if m == nil {
		return
	}
	ts := t.xferBuf[:0]
	for _, tr := range t.sched.Transfers() {
		if t.phase[tr.Job] != phasePending {
			continue
		}
		t.chBuf = m.AppendChannels(tr.From, tr.To, t.chBuf[:0])
		for _, c := range t.chBuf {
			ts = append(ts, occupancy.Transfer{
				Job: int(tr.Job), File: tr.File, Channel: m.ChannelName(c),
				Start: tr.Start, Finish: tr.Finish,
			})
		}
	}
	t.xferBuf = ts
	t.occ.PublishTransfers(ts)
}

// Plan returns the schedule the daemon currently wants enacted.
func (t *Tracker) Plan() *schedule.Schedule { return t.sched }

// Generation returns the plan generation (1 = initial plan).
func (t *Tracker) Generation() int { return t.generation }

// InitialMakespan returns the initial plan's predicted makespan.
func (t *Tracker) InitialMakespan() float64 { return t.initial }

// Clock returns the latest reported time.
func (t *Tracker) Clock() float64 { return t.clock }

// Done reports completion; Makespan is then the measured completion time.
func (t *Tracker) Done() bool { return t.done }

// Makespan returns the measured completion time (0 before Done).
func (t *Tracker) Makespan() float64 { return t.makespan }

// Decisions returns every rescheduling evaluation so far (shared slice;
// callers must not mutate).
func (t *Tracker) Decisions() []planner.Decision { return t.decisions }

// Adoptions counts adopted reschedules.
func (t *Tracker) Adoptions() int { return t.adoptions }

// Available returns the currently available resources in ID order.
func (t *Tracker) Available() []grid.Resource { return t.resources(t.avail) }

// resources returns the resources marked in in, in ID order.
func (t *Tracker) resources(in []bool) []grid.Resource {
	out := make([]grid.Resource, 0, t.nAvail)
	for id, ok := range in {
		if ok {
			out = append(out, t.resByID[id])
		}
	}
	return out
}

// Apply validates the batch against the live run and, only if every
// event is acceptable, folds it in — reports are all-or-nothing, so a
// rejected batch leaves the run untouched and the reporter can repair
// and resend. The returned Outcome says what changed. Events after the
// completing job-finished are ignored (Applied reports the prefix).
func (t *Tracker) Apply(events []wire.ReportEvent) (*Outcome, error) {
	if t.done {
		return nil, fmt.Errorf("feedback: workflow already complete")
	}
	if err := t.validate(events); err != nil {
		return nil, err
	}
	out := &Outcome{}
	joined := 0
	for i, ev := range events {
		t.clock = ev.Time
		switch ev.Kind {
		case wire.ReportJobStarted:
			j := dag.JobID(ev.Job)
			t.phase[j] = phaseStarted
			t.startAt[j] = ev.Time
			t.startRes[j] = grid.ID(ev.Resource)
			t.nStarted++
			if t.occ != nil {
				// The claim moves from the planned slot to the actual one
				// (the job may have started late, or on a resource the
				// plan moved it off an instant too late to matter).
				t.occ.Update(occupancy.Reservation{
					Job: ev.Job, Resource: grid.ID(ev.Resource),
					Start: ev.Time, Finish: ev.Time + t.est.Comp(j, grid.ID(ev.Resource)),
				})
				// A started job has its inputs in hand; its staging claims
				// on the links are spent, not pending.
				t.occ.ReleaseJobTransfers(ev.Job)
			}
		case wire.ReportJobFinished:
			t.applyFinish(ev, out)
		case wire.ReportVariance:
			j := dag.JobID(ev.Job)
			if ev.Duration > 0 {
				t.pinDur[j] = ev.Duration
			}
			t.evaluate(planner.TriggerVariance, 0, out)
		case wire.ReportResourceJoin:
			t.avail[ev.Resource] = true
			t.nAvail++
			joined++
			// Resources joining at one instant are one arrival event: a
			// run of same-time joins evaluates once, after its last join,
			// over the whole enlarged pool.
			if next := i + 1; next < len(events) && events[next].Kind == wire.ReportResourceJoin && events[next].Time == ev.Time {
				break
			}
			t.evaluate(planner.TriggerArrival, joined, out)
			joined = 0
		case wire.ReportResourceLeave:
			t.avail[ev.Resource] = false
			t.nAvail--
			t.evaluate(planner.TriggerDeparture, 0, out)
		}
		out.Applied++
		if t.done {
			out.Done = true
			out.Makespan = t.makespan
			break
		}
	}
	return out, nil
}

// Reevaluate runs one rescheduling evaluation outside the report path, at
// the run's current clock and resource view. The shard calls it on the
// survivors of a shared grid when another workflow's reservations
// release (job finishes, terminal drain): freed capacity is a run-time
// event exactly like a resource arrival, except the "resource" that
// changed hands is another tenant's claim. The returned Outcome carries
// the decision (and adoption) like an Apply would.
func (t *Tracker) Reevaluate(trigger planner.Trigger) *Outcome {
	out := &Outcome{}
	if t.done {
		return out
	}
	t.evaluate(trigger, 0, out)
	return out
}

// ForeignReservations returns how many reservations the other workflows
// on the shared grid currently hold (0 off-grid).
func (t *Tracker) ForeignReservations() int {
	if t.occ == nil {
		return 0
	}
	return t.occ.ForeignCount()
}

// validate checks the whole batch against the run's current state plus
// the batch's own earlier events, so Apply never half-applies a report.
func (t *Tracker) validate(events []wire.ReportEvent) error {
	clock := t.clock
	n := t.g.Len()
	phase := map[dag.JobID]jobPhase{}
	startRes := map[dag.JobID]grid.ID{}
	avail := map[grid.ID]bool{}
	phaseOf := func(j dag.JobID) jobPhase {
		if p, ok := phase[j]; ok {
			return p
		}
		return t.phase[j]
	}
	availOf := func(r grid.ID) bool {
		if a, ok := avail[r]; ok {
			return a
		}
		return t.avail[r]
	}
	finished := t.nFinished
	for i, ev := range events {
		if ev.Time < clock {
			return fmt.Errorf("feedback: event %d time %g before run clock %g (non-monotonic)", i, ev.Time, clock)
		}
		clock = ev.Time
		if finished == n {
			// Everything after the completing finish is dead weight but
			// harmless: Apply stops there anyway.
			continue
		}
		switch ev.Kind {
		case wire.ReportJobStarted:
			j := dag.JobID(ev.Job)
			if ev.Job >= n {
				return fmt.Errorf("feedback: event %d job %d out of range (workflow has %d jobs)", i, ev.Job, n)
			}
			if p := phaseOf(j); p != phasePending {
				return fmt.Errorf("feedback: event %d starts job %d twice", i, ev.Job)
			}
			r := grid.ID(ev.Resource)
			if ev.Resource >= t.pool.Size() {
				return fmt.Errorf("feedback: event %d resource %d out of range (universe has %d)", i, ev.Resource, t.pool.Size())
			}
			if !availOf(r) {
				return fmt.Errorf("feedback: event %d starts job %d on unavailable resource %d", i, ev.Job, ev.Resource)
			}
			phase[j] = phaseStarted
			startRes[j] = r
		case wire.ReportJobFinished:
			j := dag.JobID(ev.Job)
			if ev.Job >= n {
				return fmt.Errorf("feedback: event %d job %d out of range (workflow has %d jobs)", i, ev.Job, n)
			}
			switch phaseOf(j) {
			case phasePending:
				return fmt.Errorf("feedback: event %d finishes job %d before it started", i, ev.Job)
			case phaseFinished:
				return fmt.Errorf("feedback: event %d finishes job %d twice", i, ev.Job)
			}
			if ev.Resource != 0 {
				want := t.startRes[j]
				if r, ok := startRes[j]; ok {
					want = r
				}
				if grid.ID(ev.Resource) != want {
					return fmt.Errorf("feedback: event %d finishes job %d on resource %d, started on %d", i, ev.Job, ev.Resource, want)
				}
			}
			phase[j] = phaseFinished
			finished++
		case wire.ReportVariance:
			j := dag.JobID(ev.Job)
			if ev.Job >= n {
				return fmt.Errorf("feedback: event %d job %d out of range (workflow has %d jobs)", i, ev.Job, n)
			}
			if phaseOf(j) != phaseStarted {
				return fmt.Errorf("feedback: event %d reports variance on job %d, which is not running", i, ev.Job)
			}
		case wire.ReportResourceJoin:
			r := grid.ID(ev.Resource)
			if ev.Resource >= t.pool.Size() {
				return fmt.Errorf("feedback: event %d resource %d out of range (universe has %d)", i, ev.Resource, t.pool.Size())
			}
			if availOf(r) {
				return fmt.Errorf("feedback: event %d joins resource %d, which is already available", i, ev.Resource)
			}
			avail[r] = true
		case wire.ReportResourceLeave:
			r := grid.ID(ev.Resource)
			if ev.Resource >= t.pool.Size() {
				return fmt.Errorf("feedback: event %d resource %d out of range (universe has %d)", i, ev.Resource, t.pool.Size())
			}
			if !availOf(r) {
				return fmt.Errorf("feedback: event %d removes resource %d, which is not available", i, ev.Resource)
			}
			avail[r] = false
		}
	}
	return nil
}

// applyFinish is the Performance Monitor path: record the measured
// runtime, judge it for significant variance, update the execution
// snapshot (actual interval + ship-on-finish transfer ledger), and —
// when the deviation is significant — evaluate a reschedule.
func (t *Tracker) applyFinish(ev wire.ReportEvent, out *Outcome) {
	j := dag.JobID(ev.Job)
	r := t.startRes[j]
	d := ev.Duration
	if d <= 0 {
		d = ev.Time - t.startAt[j]
	}
	op := t.g.Job(j).Op
	variance, hasHistory := 0.0, false
	if d > 0 {
		// Judge against the history *excluding* this observation.
		variance, hasHistory = t.repo.Variance(op, r, d)
		_ = t.repo.Record(op, r, d)
		out.Recorded = append(out.Recorded, HistoryDelta{Op: op, Resource: int(r), Duration: d})
	}
	t.phase[j] = phaseFinished
	t.finishAt[j] = ev.Time
	t.nFinished++
	if t.occ != nil {
		t.occ.ReleaseJob(ev.Job)
	}
	t.ks.Finish(j, r, t.startAt[j], ev.Time)
	t.ks.Ship(j, r, ev.Time, t.sched)
	if t.nFinished == t.g.Len() {
		t.done = true
		t.makespan = 0
		for j := range t.finishAt {
			if t.phase[j] == phaseFinished && t.finishAt[j] > t.makespan {
				t.makespan = t.finishAt[j]
			}
		}
		return
	}
	if hasHistory && variance > t.thr {
		t.evaluate(planner.TriggerVariance, 0, out)
	}
}

// syncPins rebuilds the snapshot's pinned set at evaluation clock clk:
// each running job keeps its reservation (running). A job running on a
// resource in removed (a what-if's hypothetical departures) is left
// unpinned: it restarts.
func (t *Tracker) syncPins(clk float64, removed map[grid.ID]bool) {
	t.ks.Clock = clk
	t.ks.ClearPinned()
	for j := 0; j < t.g.Len(); j++ {
		if t.phase[j] == phaseStarted && !removed[t.startRes[j]] {
			t.ks.Pin(t.running(j, clk))
		}
	}
}

// running is running job j's reservation at clock clk, with an expected
// finish from the revised duration (variance report) or the current
// estimate, never earlier than clk (a job still running now cannot
// already have ended).
func (t *Tracker) running(j int, clk float64) schedule.Assignment {
	dur := t.pinDur[j]
	if dur <= 0 {
		dur = t.est.Comp(dag.JobID(j), t.startRes[j])
	}
	return schedule.Assignment{Job: dag.JobID(j), Resource: t.startRes[j], Start: t.startAt[j], Finish: max(t.startAt[j]+dur, clk)}
}

// evaluate is the Fig. 2 loop body at one run-time event: replan the
// remaining jobs over the live resource set with history-sharpened
// estimates, compare against the current plan's price, adopt on strict
// improvement. A price of +Inf (the current plan places a pending job on
// a departed resource) forces adoption of any feasible candidate.
func (t *Tracker) evaluate(trigger planner.Trigger, arrived int, out *Outcome) {
	rs := t.Available()
	if len(rs) == 0 {
		return // nothing to plan over; keep the stale plan until a join
	}
	// t.est is versioned: the kernel drops ranks history made stale itself.
	t.syncPins(t.clock, nil)
	began := time.Now()
	s1, d, err := planner.Evaluate(t.k, t.pol, rs, t.ks, t.opts, t.k.Price(rs, t.ks, t.sched), trigger, arrived)
	if err != nil || s1 == nil {
		// Evaluation failure must not kill the run ("otherwise the
		// Planner does not take any action"); a nil proposal means the
		// policy has nothing to say for this event.
		return
	}
	d.ElapsedMs = float64(time.Since(began)) / float64(time.Millisecond)
	if tm := t.k.LastTiming(); tm.RankMs > 0 || tm.PlaceMs > 0 {
		d.RankMs, d.PlaceMs = tm.RankMs, tm.PlaceMs
	}
	if d.Adopted {
		t.adopt(s1)
		out.Rescheduled = true
		out.Trigger = trigger
		t.adoptions++
	}
	t.decisions = append(t.decisions, d)
	out.Decisions = append(out.Decisions, d)
}

// adopt installs s1 and re-stages the inputs of the jobs it moved. The
// snapshot's pinned set is exactly the started jobs (evaluate synced it
// right before the replan), so Restage leaves finished and running jobs
// alone.
func (t *Tracker) adopt(s1 *schedule.Schedule) {
	t.sched = s1
	t.generation++
	planner.Restage(t.k, t.ks, s1)
	t.publishReservations()
}

// WhatIf answers the paper's §3.3 capacity question against the live
// run: what would the expected makespan become if the listed resources
// (indices into the submitted universe) joined or left right now?
// Running jobs on hypothetically removed resources are restarted
// elsewhere (the compute slot is gone); files already produced remain
// reachable (storage outlives the slot), matching planner.WhatIf. The
// evaluation is tentative: the tracker's plan and state are unchanged.
func (t *Tracker) WhatIf(q wire.WhatIfRequest) (*wire.WhatIfDoc, error) {
	if t.done {
		return nil, fmt.Errorf("feedback: workflow already complete")
	}
	if math.IsNaN(q.Clock) || math.IsInf(q.Clock, 0) {
		return nil, fmt.Errorf("feedback: what-if clock %g is not finite", q.Clock)
	}
	clk := q.Clock
	if clk < t.clock {
		clk = t.clock
	}
	in := slices.Clone(t.avail)
	removed := make(map[grid.ID]bool, len(q.Remove))
	for i, id := range slices.Concat(q.Add, q.Remove) { // a removal wins
		if id < 0 || id >= t.pool.Size() {
			return nil, fmt.Errorf("feedback: what-if resource %d out of range (universe has %d)", id, t.pool.Size())
		}
		in[id], removed[grid.ID(id)] = i < len(q.Add), i >= len(q.Add)
	}
	rs := t.resources(in)
	if len(rs) == 0 {
		return nil, fmt.Errorf("feedback: what-if leaves an empty pool")
	}

	// S0 is priced on the real state and pool; then the hypothetical pins:
	// running jobs keep reservations unless their resource is removed, in
	// which case they restart.
	t.syncPins(t.clock, nil)
	cur := t.k.Price(t.Available(), t.ks, t.sched)
	t.syncPins(clk, removed)
	s1, d, err := planner.Evaluate(t.k, t.pol, rs, t.ks, t.opts, cur, planner.TriggerArrival, len(q.Add))
	if err != nil {
		return nil, fmt.Errorf("feedback: what-if reschedule: %w", err)
	}
	if s1 == nil {
		return nil, fmt.Errorf("feedback: policy %q proposes no hypothetical schedule", t.pol.Name())
	}
	doc := &wire.WhatIfDoc{
		Clock:               clk,
		PoolSize:            len(rs),
		CurrentMakespan:     cur,
		NewMakespan:         d.NewMakespan,
		Delta:               d.NewMakespan - cur,
		WouldAdopt:          d.Adopted,
		ForeignReservations: t.ForeignReservations(),
	}
	if math.IsInf(cur, 1) {
		// The current plan is infeasible (a pending job's resource left);
		// JSON cannot carry +Inf, so the document uses the -1 sentinel and
		// any feasible candidate would be adopted.
		doc.CurrentMakespan = -1
		doc.Delta = 0
		doc.WouldAdopt = true
	}
	return doc, nil
}
