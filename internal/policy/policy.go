// Package policy defines the pluggable scheduling-policy abstraction the
// paper's Fig. 2 loop is generic over. The paper presents AHEFT as one
// instance of a general adaptive rescheduling architecture — "the heuristic
// H" inside procedure schedule(S0, P, H) is a parameter — and this package
// makes that parameterisation concrete: a Policy produces the initial plan
// for a workflow and, if it is adaptive, candidate replacement schedules
// from execution snapshots. One generic engine (the analytic runner in
// internal/planner and the event-driven feedback.Tracker) then drives any
// registered policy: classic static HEFT, the paper's AHEFT, and the dynamic
// just-in-time Min-Min family all run through the same path.
//
// Every policy is a thin ordering over the shared scheduling kernel
// (internal/kernel): the engine creates one kernel.Kernel per workflow run
// — it owns the rank cache, the dense execution state and all placement
// scratch — and passes it to Plan/Replan. Policies therefore stay
// stateless and safe for concurrent use: one Policy value may serve many
// workflows at once (the daemon's shards run concurrent workflows against
// shared registry entries), each with its own kernel.
//
// Policies are registered by name in a process-wide thread-safe registry
// so drivers and the root facade can select them with
// aheft.WithPolicy("aheft") without linking engine internals.
package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/schedule"
)

// Options tunes a policy. The zero value reproduces the paper's
// configuration: insertion-based HEFT, pin-running-jobs semantics,
// adoption on any strict improvement.
type Options struct {
	// NoInsertion disables HEFT's insertion-based slot policy (ablation).
	NoInsertion bool
	// RestartRunning reschedules mid-execution jobs, discarding their
	// partial work (ablation). The default pins running jobs in place.
	RestartRunning bool
	// TieWindow enables near-tie rank-order exploration in the
	// rescheduler (see kernel.Options.TieWindow). Zero is paper-faithful
	// greedy; ≈0.05 recovers the paper's Fig. 5(b) worked example.
	TieWindow float64
	// Eps is the minimum makespan improvement required to adopt a new
	// schedule. Zero means the 1e-9 float tolerance.
	Eps float64
	// Data, when non-nil, turns on data-aware scheduling: file-carrying
	// edges cost size ÷ effective bandwidth, transfers serialize over the
	// model's capacity channels, and staged replicas are reused. Engines
	// bind it to their kernels (kernel.SetData); nil keeps every schedule
	// bit-identical to the classic point-to-point model.
	Data *data.Model
}

// Kernel converts the options into the scheduling-kernel options.
func (o Options) Kernel() kernel.Options {
	return kernel.Options{
		NoInsertion: o.NoInsertion,
		TieWindow:   o.TieWindow,
	}
}

// Policy is one scheduling strategy the generic engine can drive.
//
// Plan produces the initial schedule for the workflow, whose graph and
// estimator the kernel k is bound to. It receives the full dynamic pool:
// a look-ahead policy (HEFT, AHEFT) plans on the resources available at
// time 0, while a just-in-time policy (Min-Min) simulates its dispatch
// decisions across the pool's whole arrival timeline and returns the
// realised schedule.
//
// Replan produces a candidate replacement schedule from the dense
// execution snapshot st over the resources rs available at st.Clock.
// Returning (nil, nil) means the policy proposes nothing for this event;
// the engine records no decision. Replan is only called when Adaptive
// reports true.
//
// Implementations must be stateless (or internally synchronised): the
// kernel argument carries all per-run mutable state.
type Policy interface {
	// Name returns the registry key, lower-case ("heft", "aheft", …).
	Name() string
	// Adaptive reports whether the policy reacts to run-time events.
	Adaptive() bool
	// Plan produces the initial schedule.
	Plan(k *kernel.Kernel, pool *grid.Pool, opts Options) (*schedule.Schedule, error)
	// Replan produces a candidate replacement schedule, or (nil, nil) to
	// keep the current one.
	Replan(k *kernel.Kernel, rs []grid.Resource, st *kernel.State, opts Options) (*schedule.Schedule, error)
}

// JustInTime is an optional interface a Policy implements to declare that
// its Plan is a dispatch *simulation* — decision-time file transfers, no
// communication/computation overlap — whose realised schedule must not be
// re-enacted by the discrete-event executor: ship-on-finish enactment
// would start transfers earlier than the model allows and silently erase
// the baseline's structural penalty. Engines that enact schedules reject
// such policies instead of producing subtly different makespans.
type JustInTime interface {
	JustInTime() bool
}

// IsJustInTime reports whether p declares just-in-time Plan semantics.
func IsJustInTime(p Policy) bool {
	j, ok := p.(JustInTime)
	return ok && j.JustInTime()
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Policy)
)

// Canon returns the canonical registry form of a policy name.
func Canon(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Register adds a policy under Canon(p.Name()). Registering a duplicate
// name is an error so two packages cannot silently shadow each other.
func Register(p Policy) error {
	if p == nil {
		return fmt.Errorf("policy: Register(nil)")
	}
	name := Canon(p.Name())
	if name == "" {
		return fmt.Errorf("policy: empty policy name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("policy: %q already registered", name)
	}
	registry[name] = p
	return nil
}

// MustRegister is Register that panics on error; for init-time use.
func MustRegister(p Policy) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// Lookup returns the policy registered under Canon(name).
func Lookup(name string) (Policy, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[Canon(name)]
	return p, ok
}

// Get returns the policy registered under name, or an error naming the
// available policies.
func Get(name string) (Policy, error) {
	if p, ok := Lookup(name); ok {
		return p, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// MustGet is Get that panics on error; for built-in names in tests and
// drivers.
func MustGet(name string) Policy {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names lists the registered policy names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	MustRegister(heftPolicy{})
	MustRegister(aheftPolicy{})
	MustRegister(greedyPolicy{})
	MustRegister(jitPolicy{h: MinMin})
	MustRegister(jitPolicy{h: MaxMin})
	MustRegister(jitPolicy{h: Sufferage})
}
