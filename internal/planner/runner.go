// Package planner implements the Planner side of the paper's Fig. 1
// architecture: per-workflow Scheduler instances that make an initial
// plan, listen for run-time events, evaluate each event by tentative
// rescheduling, and adopt the new schedule only when it improves the
// predicted makespan (the generic adaptive rescheduling algorithm of
// Fig. 2).
//
// The loop is generic over the scheduling policy (the paper's heuristic H):
// both drivers execute any policy.Policy from the registry — classic
// static HEFT, the paper's AHEFT, or the just-in-time Min-Min family —
// through the same engine path, each run owning one scheduling kernel
// (internal/kernel) that carries the rank cache, the dense execution
// state and the placement scratch across events. The analytic runner in
// this file replays the paper's experiment setting directly — accurate
// estimates, so execution follows the schedule exactly and only
// resource-arrival events can change anything; it is what the experiment
// harness and benchmarks use, since it is fast and provably equivalent to
// the event-driven execution (an integration test in this package checks
// the equivalence against aheft.Run's event-driven path, which enacts the
// workflow while the daemon's feedback.Tracker plans it).
package planner

import (
	"context"
	"fmt"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/policy"
	"aheft/internal/schedule"
)

// RunOptions tunes the planner. It is an alias of policy.Options so the
// engine and the policies share one configuration type; the zero value
// reproduces the paper's configuration.
type RunOptions = policy.Options

// Trigger classifies what caused a rescheduling evaluation.
type Trigger int

const (
	// TriggerArrival is a resource-pool change event (the paper's primary
	// trigger).
	TriggerArrival Trigger = iota
	// TriggerVariance is a significant deviation of a measured job runtime
	// from the performance history (the feedback loop's variance
	// threshold).
	TriggerVariance
	// TriggerDeparture is a resource leaving the pool (live feedback
	// runs): unstarted jobs scheduled on the departed resource make the
	// current plan infeasible, which forces adoption of the replan.
	TriggerDeparture
	// TriggerContention is a cross-workflow occupancy change on a shared
	// grid: another workflow finished jobs or departed, releasing its
	// reservations, so the survivors' slot searches see freed capacity —
	// the arrival/departure analogue when the "resource" that changed is
	// another tenant's claim on the grid.
	TriggerContention
	// TriggerUpgrade is the slow half of the two-speed admission path: a
	// workflow admitted under overload with a cheap greedy placement is
	// asynchronously re-evaluated with the full rank-and-insertion pass,
	// and the better plan adopted through the normal decision machinery.
	// Unlike the event triggers above it is not caused by anything the
	// grid did — it is the daemon paying back the planning debt it took
	// on to keep admission latency flat.
	TriggerUpgrade
	// NumTriggers counts the triggers above; it sizes per-trigger arrays.
	NumTriggers = iota
)

// TriggerNames is the one list of trigger names, in iota order: what
// String returns, what /metrics keys its per-trigger families by, and
// what report acks carry in their trigger field.
var TriggerNames = [NumTriggers]string{"arrival", "variance", "departure", "contention", "upgrade"}

// String returns the trigger's name.
func (t Trigger) String() string {
	if t >= 0 && int(t) < NumTriggers {
		return TriggerNames[t]
	}
	return fmt.Sprintf("Trigger(%d)", int(t))
}

// Decision records one rescheduling evaluation: the Fig. 2 loop body at a
// single event.
type Decision struct {
	Clock        float64 // event time
	PoolSize     int     // resources available after the event
	OldMakespan  float64 // S0's predicted makespan
	NewMakespan  float64 // S1's predicted makespan
	Adopted      bool    // whether S1 replaced S0
	JobsFinished int     // jobs already completed at the event
	Trigger      Trigger // what caused this evaluation
	ArrivedCount int     // resources that joined at the event (arrival trigger)

	// The fields below are process-local telemetry, not replayable state:
	// wall-clock readings a recovered or replayed run will not reproduce.
	// They are excluded from serialised forms — the wire layers that want
	// them map them explicitly.

	// ElapsedMs is the wall-clock cost of the replan in milliseconds.
	// RankMs/PlaceMs split it into the kernel's upward-rank phase and
	// the placement phase — the kernel timing hooks the evaluate spans
	// surface.
	ElapsedMs float64 `json:"-"`
	RankMs    float64 `json:"-"`
	PlaceMs   float64 `json:"-"`
}

// Result is the outcome of running one workflow to completion under one
// policy.
type Result struct {
	// Policy is the registry name of the policy that produced the result.
	Policy string
	// Schedule is the final (possibly rescheduled) schedule; with accurate
	// estimates its assignment times are the actual execution times. An
	// event-driven run reports the enacted times.
	Schedule *schedule.Schedule
	// Makespan is the workflow's completion time.
	Makespan float64
	// InitialMakespan is the makespan of the initial schedule — identical
	// between HEFT and AHEFT by construction.
	InitialMakespan float64
	// Decisions lists every rescheduling evaluation (empty for
	// non-adaptive policies).
	Decisions []Decision
}

// Improvement returns the fractional makespan improvement of the final
// schedule over the initial static schedule.
func (r *Result) Improvement() float64 {
	if r.InitialMakespan <= 0 {
		return 0
	}
	return (r.InitialMakespan - r.Makespan) / r.InitialMakespan
}

// Adoptions counts adopted reschedules.
func (r *Result) Adoptions() int {
	n := 0
	for _, d := range r.Decisions {
		if d.Adopted {
			n++
		}
	}
	return n
}

// RunPolicy executes workflow g on the dynamic pool under any scheduling
// policy with accurate cost estimates, returning the completed execution.
// It honours ctx: cancellation between planning steps aborts the run with
// the context's error.
//
// The engine creates the run's scheduling kernel, asks the policy for the
// initial plan, then — for adaptive policies — walks the pool's change
// events in time order. At each event time t before the workflow
// completes it updates the dense execution snapshot of the current
// schedule at clock t, asks the policy to replan over the enlarged
// resource set, and adopts the result if it strictly improves the
// makespan (Fig. 2, lines 7–9).
func RunPolicy(ctx context.Context, g *dag.Graph, est cost.Estimator, pool *grid.Pool, pol policy.Policy, opts policy.Options) (*Result, error) {
	return runPolicy(ctx, g, est, pool, pol, opts, nil)
}

// RunPolicyObserved is RunPolicy with a live decision observer: observe is
// invoked synchronously for every rescheduling evaluation as it is made.
// The daemon's analytic mode uses it to stream decisions to subscribers.
func RunPolicyObserved(ctx context.Context, g *dag.Graph, est cost.Estimator, pool *grid.Pool, pol policy.Policy, opts policy.Options, observe func(Decision)) (*Result, error) {
	return runPolicy(ctx, g, est, pool, pol, opts, observe)
}

func runPolicy(ctx context.Context, g *dag.Graph, est cost.Estimator, pool *grid.Pool, pol policy.Policy, opts policy.Options, observe func(Decision)) (*Result, error) {
	if pol == nil {
		return nil, fmt.Errorf("planner: nil policy")
	}
	if err := validateInputs(g, pool); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := kernel.New(g, est)
	defer k.Release()
	if opts.Data != nil {
		k.SetData(opts.Data)
	}
	initial, err := pol.Plan(k, pool, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy:          pol.Name(),
		Schedule:        initial,
		Makespan:        initial.Makespan(),
		InitialMakespan: initial.Makespan(),
	}
	if !pol.Adaptive() {
		return res, nil
	}

	// The analytic engine mirrors the event-driven Execution Manager
	// exactly (an integration test holds the two to bit-equality), which
	// requires carrying the file-transfer ledger *across* rescheduling
	// decisions: a transfer initiated under an earlier schedule generation
	// — at a producer's finish toward its consumer's then-current
	// resource, or as a fresh Case-2 transfer at an earlier adoption —
	// keeps its ETA even after the consumer moves again. Rebuilding the
	// ledger from the current schedule alone would forget those copies and
	// mis-time rescheduled starts. The ledger lives in the kernel's dense
	// state, which persists across the whole event walk.
	s0 := initial
	st := k.NewState(pool.Size())
	defer st.Release()
	prev := 0.0
	var rs []grid.Resource
	for _, t := range pool.ChangeTimes() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if t >= s0.Makespan() {
			break // the workflow finished before this event
		}
		rs = pool.AppendAvailableAt(rs[:0], t)
		// Ship the outputs of every job that finished in (prev, t] under
		// the schedule that was current during that window, then classify
		// the jobs at clock t.
		st.Clock = t
		st.ClearPinned()
		for _, j := range g.Jobs() {
			a := s0.MustGet(j.ID)
			switch {
			case a.Finish <= t:
				st.Finish(j.ID, a.Resource, a.Start, a.Finish)
				if a.Finish > prev {
					st.Ship(j.ID, a.Resource, a.Finish, s0)
				}
			case a.Start < t:
				st.Pin(a)
			}
		}
		prev = t
		// S0 is priced with its running jobs running; the restart ablation
		// frees them for S1 only.
		cur := k.Price(rs, st, s0)
		if opts.RestartRunning {
			st.ClearPinned()
		}
		s1, d, err := Evaluate(k, pol, rs, st, opts, cur, TriggerArrival, len(pool.ArrivalsAt(t)))
		if err != nil {
			return nil, err
		}
		if s1 == nil {
			continue // the policy proposes nothing for this event
		}
		if d.Adopted {
			s0 = s1
			Restage(k, st, s1)
		}
		res.Decisions = append(res.Decisions, d)
		if observe != nil {
			observe(d)
		}
	}
	res.Schedule = s0
	res.Makespan = s0.Makespan()
	return res, nil
}

// Better reports whether candidate improves on current by more than eps —
// the adoption test of Fig. 2 line 7, with a small tolerance so that
// floating-point noise never triggers a spurious schedule switch.
func Better(current, candidate float64, eps float64) bool {
	if eps <= 0 {
		eps = 1e-9
	}
	return candidate < current-eps
}

// Evaluate is the Fig. 2 loop body at one event, shared by every engine
// and both what-ifs: replan the jobs st leaves free over rs and decide
// adoption by Better against cur, S0's price — k.Price of the current
// plan on the real state and pool, taken before any hypothetical change
// to st. The Decision's Clock and JobsFinished come from st. A policy
// that proposes nothing yields a nil schedule. The caller installs an
// adopted S1 and re-stages its inputs (Restage); wall-clock telemetry is
// its to add.
func Evaluate(k *kernel.Kernel, pol policy.Policy, rs []grid.Resource, st *kernel.State, opts policy.Options,
	cur float64, trig Trigger, arrived int) (*schedule.Schedule, Decision, error) {
	s1, err := pol.Replan(k, rs, st, opts)
	if err != nil || s1 == nil {
		return nil, Decision{}, err
	}
	return s1, Decision{
		Clock:        st.Clock,
		PoolSize:     len(rs),
		OldMakespan:  cur,
		NewMakespan:  s1.Makespan(),
		Adopted:      Better(cur, s1.Makespan(), opts.Eps),
		JobsFinished: st.FinishedCount(),
		Trigger:      trig,
		ArrivedCount: arrived,
	}, nil
}

// Restage mirrors the Execution Manager's input staging when s1 is
// adopted at st.Clock: every job s1 may still move (neither finished nor
// pinned) whose finished predecessor's file is not already at, or moving
// to, its new resource gets a fresh transfer starting now — Eq. 1 Case 2
// made physical.
func Restage(k *kernel.Kernel, st *kernel.State, s1 *schedule.Schedule) {
	g := k.Graph()
	for _, jb := range g.Jobs() {
		j := jb.ID
		if st.Finished(j) || st.Pinned(j) {
			continue
		}
		r := s1.MustGet(j).Resource
		for i, e := range g.Preds(j) {
			if !st.Finished(e.From) {
				continue
			}
			if _, directed := st.PredTransferAt(j, i, r); directed {
				continue
			}
			pr, _, _ := st.FinishedOutcome(e.From)
			st.SetTransfer(e.From, j, r, st.Clock+k.PredComm(j, i, pr, r))
		}
	}
}

func validateInputs(g *dag.Graph, pool *grid.Pool) error {
	if g == nil || g.Len() == 0 {
		return fmt.Errorf("planner: empty workflow")
	}
	if pool == nil || pool.Size() == 0 {
		return fmt.Errorf("planner: empty pool")
	}
	if len(pool.Initial()) == 0 {
		return fmt.Errorf("planner: no resources at time 0")
	}
	return nil
}
