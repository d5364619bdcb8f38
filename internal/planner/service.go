package planner

import (
	"context"
	"fmt"
	"time"

	"aheft/internal/core"
	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/executor"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/kernel"
	"aheft/internal/policy"
	"aheft/internal/sim"
	"aheft/internal/trace"
)

// ServiceOptions configures an event-driven Scheduler instance.
type ServiceOptions struct {
	RunOptions
	// Policy selects the scheduling policy the service drives; nil means
	// the registry's "aheft" policy.
	Policy policy.Policy
	// Runtime supplies actual durations for the executor; nil uses the
	// estimator itself (accurate estimation).
	Runtime executor.Runtime
	// History, when non-nil, is updated with every measured job runtime —
	// the Fig. 1 feedback loop into the Performance History Repository.
	History *history.Repository
	// VarianceThreshold, when positive, makes the Planner also evaluate a
	// reschedule when a job's measured runtime deviates from the history
	// EWMA by more than this relative amount — the paper's "significant
	// variance of job performance" event.
	VarianceThreshold float64
	// Trace, when non-nil, records every run-time event and every
	// rescheduling decision into the collector.
	Trace *trace.Collector
}

// policyOrDefault resolves the configured policy.
func (o ServiceOptions) policyOrDefault() (policy.Policy, error) {
	if o.Policy != nil {
		return o.Policy, nil
	}
	return policy.Get("aheft")
}

// Service is one Scheduler instance of the paper's Fig. 1 Planner: it owns
// a single workflow, makes the initial plan under its policy, subscribes
// to the Executor's run-time events, and replans adaptively when the
// policy is adaptive.
type Service struct {
	g    *dag.Graph
	est  cost.Estimator
	pool *grid.Pool
	pol  policy.Policy
	opts ServiceOptions

	k  *kernel.Kernel // the run's scheduling kernel (rank cache + scratch)
	ks *kernel.State  // dense snapshot scratch, refilled per evaluation

	engine    *executor.Engine
	decisions []Decision
	initial   float64
	ctx       context.Context // non-nil only during ExecuteContext
}

// NewService plans the workflow under the configured policy and prepares
// an executor engine wired to this service's event handler.
func NewService(g *dag.Graph, est cost.Estimator, pool *grid.Pool, opts ServiceOptions) (*Service, error) {
	if err := validateInputs(g, pool); err != nil {
		return nil, err
	}
	pol, err := opts.policyOrDefault()
	if err != nil {
		return nil, err
	}
	s := &Service{g: g, est: est, pool: pool, pol: pol, opts: opts}
	s.k = kernel.New(g, est)
	if opts.RunOptions.Data != nil {
		s.k.SetData(opts.RunOptions.Data)
	}
	s.ks = s.k.NewState(pool.Size())
	initial, err := pol.Plan(s.k, pool, opts.RunOptions)
	if err != nil {
		return nil, err
	}
	s.initial = initial.Makespan()
	rt := opts.Runtime
	if rt == nil {
		rt = est
	}
	var handler executor.EventHandler = s
	if opts.Trace != nil {
		// The collector sees every event first, then forwards it to the
		// Scheduler, so decisions appear after the event that caused them.
		opts.Trace.Chain(s)
		handler = opts.Trace
	}
	engine, err := executor.New(sim.New(), g, rt, pool, initial, handler)
	if err != nil {
		return nil, err
	}
	s.engine = engine
	return s, nil
}

// Execute runs the workflow to completion through the event-driven
// executor and reports the outcome.
func (s *Service) Execute() (*Result, error) {
	return s.ExecuteContext(context.Background())
}

// ExecuteContext is Execute honouring ctx: cancellation aborts the
// discrete-event execution at the next run-time event.
func (s *Service) ExecuteContext(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.ctx = ctx
	defer func() { s.ctx = nil }()
	if _, err := s.engine.Run(); err != nil {
		return nil, err
	}
	return &Result{
		Policy:          s.pol.Name(),
		Schedule:        s.engine.Schedule(),
		Makespan:        s.engine.Makespan(),
		InitialMakespan: s.initial,
		Decisions:       s.decisions,
	}, nil
}

// Engine exposes the underlying executor (for inspection in tests and
// tools).
func (s *Service) Engine() *executor.Engine { return s.engine }

// Policy returns the scheduling policy the service drives.
func (s *Service) Policy() policy.Policy { return s.pol }

// HandleEvent implements executor.EventHandler: the Fig. 2 loop body. A
// resource-arrival event (and, optionally, a significant performance
// variance) triggers evaluation by replanning; the new schedule is
// submitted only when it improves the predicted makespan.
func (s *Service) HandleEvent(ev executor.Event) {
	if s.ctx != nil && s.ctx.Err() != nil {
		s.engine.Cancel(s.ctx.Err())
		return
	}
	if ev.Finished != dag.NoJob {
		s.onFinish(ev)
		return
	}
	if !s.pol.Adaptive() {
		return
	}
	if len(ev.Arrived) > 0 {
		s.evaluate(ev.Time, TriggerArrival, len(ev.Arrived))
	}
}

// onFinish is the Performance Monitor feeding the history repository; it
// measures for every policy (the Fig. 1 loop exists regardless of what
// the Planner does with it), while the variance *reaction* is the
// adaptive policies' business.
func (s *Service) onFinish(ev executor.Event) {
	if s.opts.History == nil {
		return
	}
	op := s.g.Job(ev.Finished).Op
	variance, hasHistory := s.opts.History.Variance(op, ev.OnResource, ev.ActualDuration)
	// Record after measuring variance so the event is judged against the
	// history excluding this very observation.
	_ = s.opts.History.Record(op, ev.OnResource, ev.ActualDuration)
	if s.pol.Adaptive() && s.opts.VarianceThreshold > 0 && hasHistory && variance > s.opts.VarianceThreshold {
		s.evaluate(ev.Time, TriggerVariance, 0)
	}
}

// evaluate performs one rescheduling evaluation at the current clock,
// recording what triggered it and how many resources arrived.
func (s *Service) evaluate(clock float64, trigger Trigger, arrived int) {
	st := s.engine.ExecState()
	core.LoadState(s.ks, st)
	rs := s.pool.AvailableAt(clock)
	// The event-driven service may run a history-consulting estimator
	// (the Fig. 1 feedback loop sharpens predictions while the workflow
	// executes), so cached upward ranks can go stale even when the
	// resource set did not change — e.g. on a variance-triggered
	// evaluation. A versioned estimator advertises that drift and the
	// kernel recomputes by itself; only unversioned ones need the
	// explicit invalidation.
	if _, versioned := s.est.(kernel.VersionedEstimator); !versioned {
		s.k.InvalidateRanks()
	}
	began := time.Now()
	s1, err := s.pol.Replan(s.k, rs, s.ks, s.opts.RunOptions)
	elapsed := time.Since(began)
	if err != nil {
		// An evaluation failure must not kill the running workflow; keep
		// the current schedule (the paper's "otherwise the Planner does
		// not take any action").
		return
	}
	if s1 == nil {
		return // the policy proposes nothing for this event
	}
	cur := s.engine.Schedule().Makespan()
	d := Decision{
		Clock:        clock,
		PoolSize:     len(rs),
		OldMakespan:  cur,
		NewMakespan:  s1.Makespan(),
		JobsFinished: len(st.Finished),
		Trigger:      trigger,
		ArrivedCount: arrived,
		ElapsedMs:    float64(elapsed) / float64(time.Millisecond),
	}
	if core.Better(cur, s1.Makespan(), s.opts.Eps) {
		if err := s.engine.Resubmit(s1); err == nil {
			d.Adopted = true
		}
	}
	s.decisions = append(s.decisions, d)
	if s.opts.Trace != nil {
		s.opts.Trace.Reschedule(clock, d.OldMakespan, d.NewMakespan, d.Adopted, trigger.String(), arrived)
	}
}

// String describes the service.
func (s *Service) String() string {
	return fmt.Sprintf("planner.Service(%s, %s, %d jobs)", s.g.Name(), s.pol.Name(), s.g.Len())
}
