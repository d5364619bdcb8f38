// Package aheft is a Go implementation of AHEFT — the adaptive
// rescheduling strategy for grid workflow applications of Yu & Shi (IPDPS
// 2007) — together with everything needed to study it: the classic static
// HEFT scheduler it extends, a dynamic just-in-time Min-Min baseline, a
// deterministic enactment engine that realises plans by the scheduling
// kernel's pricing rules, driven by the same feedback loop the aheftd
// daemon runs, workload generators for parametric random DAGs and the
// BLAST/WIEN2K application shapes, and an experiment harness that
// regenerates every table and figure of the paper's evaluation.
//
// # The v2 API
//
// Scheduling strategies are policies behind one engine: each of the five
// policies ("heft", "aheft", "minmin", "maxmin", "sufferage" — see
// Policies) runs through the same adaptive-rescheduling loop, selected
// by name with functional options. Run is context-aware; every call is an
// independent run over an immutable pool, so many workflows run
// concurrently as many Run calls (the daemon, cmd/aheftd, is the
// multi-workflow streaming API).
//
//	sc := aheft.SampleScenario() // the paper's Fig. 4 worked example
//	res, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool,
//	    aheft.WithPolicy("aheft"), aheft.WithTieWindow(0.05))
//	// res.Makespan == 76; WithPolicy("heft") gives the static 80.
//
// The facade re-exports the most commonly used types from the internal
// packages; import the internal packages directly for the full API
// surface (internal/dag for graph construction, internal/workload for
// generators, internal/policy for the five policies,
// internal/experiment for the evaluation harness, …).
package aheft

import (
	"context"
	"fmt"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/drive"
	"aheft/internal/feedback"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/kernel"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/schedule"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// Core model types.
type (
	// Graph is a workflow DAG (jobs + weighted data-dependence edges).
	Graph = dag.Graph
	// JobID identifies a job within one Graph.
	JobID = dag.JobID
	// Resource is one computation unit of the grid.
	Resource = grid.Resource
	// Pool is the time-varying resource set.
	Pool = grid.Pool
	// Estimator supplies the performance estimation matrix P.
	Estimator = cost.Estimator
	// CostTable is the ground-truth jobs × resources cost matrix.
	CostTable = cost.Table
	// Schedule maps jobs to (resource, start, finish) assignments.
	Schedule = schedule.Schedule
	// Assignment is one job's placement.
	Assignment = schedule.Assignment
	// Scenario bundles a workflow, its cost table and its dynamic pool.
	Scenario = workload.Scenario
	// Result is a completed execution.
	Result = planner.Result
	// Decision records one rescheduling evaluation.
	Decision = planner.Decision
	// Policy is a pluggable scheduling strategy (see internal/policy).
	Policy = policy.Policy
	// History is the performance-history repository of the Fig. 1
	// feedback loop.
	History = history.Repository
	// Runtime supplies actual job durations and transfer times to the
	// event-driven path when they deviate from the estimates.
	Runtime = cost.Estimator
	// FileSet is a workflow's data-file catalog (see WithFileReuse).
	FileSet = data.Set
	// File is one named data product of a FileSet.
	File = data.File
)

// NewGraph returns an empty workflow graph.
func NewGraph(name string) *Graph { return dag.New(name) }

// StaticPool returns n resources all available from time 0.
func StaticPool(n int) *Pool { return grid.StaticPool(n) }

// Exact adapts a ground-truth cost table into the Estimator the planner
// consumes (the paper's accurate-estimation assumption).
func Exact(t *CostTable) Estimator { return cost.Exact(t) }

// SampleScenario returns the paper's Fig. 4 worked example: the ten-job
// sample DAG, its cost matrix, and a pool in which r4 joins at t = 15.
func SampleScenario() *Scenario { return workload.SampleScenario() }

// DataScenario returns the data-heavy two-site scenario (pre-staged
// database, fan-out searches, link-constrained grid) that exercises the
// data-aware scheduling path; its Files catalog plugs into WithFileReuse.
func DataScenario() *Scenario { return workload.DataScenario(workload.DataParams{}) }

// NewHistory returns an empty performance-history repository (default
// EWMA smoothing).
func NewHistory() *History { return history.New(0) }

// Policies lists the scheduling-policy names.
func Policies() []string { return policy.Names() }

// config is the resolved option set of one Run.
type config struct {
	policyName string
	popts      policy.Options

	// Data-aware scheduling inputs, resolved against the concrete pool
	// inside Run (WithLinks/WithFileReuse).
	links map[string]float64
	files *FileSet

	// Run-time extras; any of these switches Run onto the event-driven
	// path (see enact).
	runtime     Runtime
	hist        *History
	varianceThr float64
}

// Option configures Run via functional options.
type Option func(*config)

// WithPolicy selects the scheduling policy by name ("heft", "aheft",
// "minmin", "maxmin" or "sufferage"; case and surrounding space are
// ignored). The default is "aheft".
func WithPolicy(name string) Option { return func(c *config) { c.policyName = name } }

// WithTieWindow enables near-tie rank-order exploration in the
// rescheduler; ≈0.05 recovers the paper's Fig. 5(b) worked example, zero
// (the default) is paper-faithful greedy.
func WithTieWindow(w float64) Option { return func(c *config) { c.popts.TieWindow = w } }

// WithNoInsertion disables HEFT's insertion-based slot policy (ablation).
func WithNoInsertion() Option { return func(c *config) { c.popts.NoInsertion = true } }

// WithRestartRunning reschedules mid-execution jobs, discarding their
// partial work (ablation); the default pins running jobs in place. The
// ablation exists only on the analytic engine — the event-driven path
// cannot revoke a started job — so combining it with WithRuntime,
// WithHistory or WithVarianceThreshold is an error.
func WithRestartRunning() Option { return func(c *config) { c.popts.RestartRunning = true } }

// WithEps sets the minimum makespan improvement required to adopt a new
// schedule (zero means the 1e-9 float tolerance).
func WithEps(eps float64) Option { return func(c *config) { c.popts.Eps = eps } }

// WithHistory is the Performance History Repository of the Fig. 1
// feedback loop: the planner's Predictor reads it, and every measured job
// runtime is recorded into it. Implies the event-driven path; without it
// that path starts from an empty repository.
func WithHistory(h *History) Option { return func(c *config) { c.hist = h } }

// WithRuntime supplies actual job durations that may deviate from the
// estimates (inaccurate-prediction studies). Implies the event-driven
// path; without it the runtimes are the estimates.
func WithRuntime(rt Runtime) Option { return func(c *config) { c.runtime = rt } }

// WithVarianceThreshold sets the relative deviation of a measured runtime
// from the history EWMA beyond which the planner evaluates a reschedule —
// the paper's "significant variance" event (default 0.2). Implies the
// event-driven path; combine with WithRuntime for runtimes that actually
// deviate.
func WithVarianceThreshold(v float64) Option { return func(c *config) { c.varianceThr = v } }

// WithLinks declares (or overrides) named shared-link bandwidths on the
// run's pool: resources referencing a link by name (Resource.Link) share
// its capacity, and data-aware transfers crossing it serialize against
// each other. Typically combined with WithFileReuse; without a file
// catalog the links are carried but no edge derives a cost from them.
func WithLinks(links map[string]float64) Option {
	return func(c *config) { c.links = links }
}

// WithFileReuse turns on data-aware scheduling: edges that name a file of
// the catalog cost file size ÷ effective path bandwidth instead of their
// raw numeric weight, transfers occupy the pool's declared uplink/
// downlink/link capacities and serialize in the slot search, and an input
// already materialized on a resource — produced there, pre-staged on one
// of the file's Hosts, or staged by an earlier transfer — costs nothing.
// A nil catalog (or not using this option) keeps every schedule
// bit-identical to the classic point-to-point model.
func WithFileReuse(fs *FileSet) Option {
	return func(c *config) { c.files = fs }
}

// Run executes one workflow on the dynamic pool under the configured
// policy (default "aheft") and returns the completed execution. It
// honours ctx: cancellation aborts the run with the context's error.
//
// By default the fast analytic engine replays the paper's experiment
// setting: accurate estimates, so execution follows the schedule exactly.
// WithRuntime, WithHistory and WithVarianceThreshold switch to the
// run-time architecture — the aheftd daemon's feedback loop without the
// socket (see enact) — which tests hold to the analytic engine's results
// under accurate estimates for the plan-ahead policies. Just-in-time
// policies ("minmin", "maxmin", "sufferage") and WithRestartRunning are
// analytic-only and return an error when combined with those options.
func Run(ctx context.Context, g *Graph, est Estimator, pool *Pool, opts ...Option) (*Result, error) {
	cfg := config{policyName: "aheft"}
	for _, o := range opts {
		o(&cfg)
	}
	pol, err := policy.Get(cfg.policyName)
	if err != nil {
		return nil, fmt.Errorf("aheft: %w", err)
	}
	if cfg.links != nil {
		merged, err := pool.WithLinks(cfg.links)
		if err != nil {
			return nil, fmt.Errorf("aheft: %w", err)
		}
		pool = merged
	}
	if cfg.files != nil {
		m, err := data.NewModel(cfg.files, pool, g, 0)
		if err != nil {
			return nil, fmt.Errorf("aheft: %w", err)
		}
		cfg.popts.Data = m
	}
	if cfg.runtime == nil && cfg.hist == nil && cfg.varianceThr <= 0 {
		return planner.RunPolicy(ctx, g, est, pool, pol, cfg.popts)
	}
	return enact(ctx, g, est, pool, pol, cfg)
}

// enact is the daemon's feedback loop without the socket. A
// feedback.Tracker plans the workflow and folds in every run-time event;
// drive.Enact realises the Tracker's current plan under the truth — the
// runtimes and, with a file catalog, the data model — and hands each
// batch of events to it in process. The history is the caller's or a
// fresh one, the variance threshold the caller's or the Tracker's
// default, and the runtimes the caller's or the estimates.
func enact(ctx context.Context, g *Graph, est Estimator, pool *Pool, pol Policy, cfg config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The enactment cannot revoke a started job: honouring the ablation
	// here would quietly degrade to pin-running semantics.
	if cfg.popts.RestartRunning {
		return nil, fmt.Errorf("aheft: WithRestartRunning is an analytic-engine ablation and cannot be combined with WithRuntime, WithHistory or WithVarianceThreshold")
	}
	hist := cfg.hist
	if hist == nil {
		hist = history.New(0)
	}
	// The Tracker refuses just-in-time policies: re-enacting a dispatch
	// simulation with ship-on-finish transfers would silently change it.
	tr, err := feedback.New(feedback.Config{
		Graph: g, Prior: est, Pool: pool, History: hist, Policy: pol,
		Opts: cfg.popts, VarianceThreshold: cfg.varianceThr,
	})
	if err != nil {
		return nil, fmt.Errorf("aheft: %w", err)
	}
	rt := cfg.runtime
	if rt == nil {
		rt = est
	}
	truth := drive.Truth(g, rt, cfg.popts.Data, pool)
	defer truth.Release()
	var decisions []planner.Decision
	enacted, err := drive.Enact(ctx, truth, pool, []*schedule.Schedule{tr.Plan()}, []int{0},
		func(_ int, evs []wire.ReportEvent) (*schedule.Schedule, bool, error) {
			out, err := tr.Apply(evs)
			if err != nil {
				return nil, false, err
			}
			decisions = append(decisions, out.Decisions...)
			if !out.Rescheduled {
				return nil, out.Done, nil
			}
			return tr.Plan(), out.Done, nil
		})
	if err != nil {
		return nil, err
	}
	return &Result{
		Policy:          pol.Name(),
		Schedule:        enacted,
		Makespan:        enacted.Makespan(),
		InitialMakespan: tr.InitialMakespan(),
		Decisions:       decisions,
	}, nil
}

// HEFT computes a one-shot static HEFT schedule over a fixed resource set.
func HEFT(g *Graph, est Estimator, rs []Resource) (*Schedule, error) {
	return kernel.New(g, est).Static(rs, kernel.Options{})
}

// MinMin runs the dynamic just-in-time Min-Min baseline and returns the
// completed execution — shorthand for Run with WithPolicy("minmin").
func MinMin(ctx context.Context, g *Graph, est Estimator, pool *Pool) (*Result, error) {
	return Run(ctx, g, est, pool, WithPolicy("minmin"))
}
