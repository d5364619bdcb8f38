// Package core implements AHEFT, the paper's primary contribution: an
// HEFT-based adaptive rescheduling algorithm in which the workflow Planner
// reacts to run-time events (chiefly resource arrivals) by rescheduling the
// jobs that have not yet finished, adopting the new schedule only when it
// improves the predicted makespan.
//
// The package follows the paper's formalisation directly:
//
//   - ExecState is the execution-status snapshot of the current schedule S0
//     at the logical time `clock` of rescheduling.
//   - FEA (Eq. 1) gives the earliest time a predecessor's output file is
//     available on a candidate resource, with its four cases: already on
//     the resource; finished elsewhere and needing a fresh transfer that
//     cannot start before clock; being produced on that same resource in
//     the new schedule; or being produced elsewhere in the new schedule.
//   - EST/EFT (Eqs. 2–3) fold FEA with resource availability.
//   - Reschedule is procedure schedule(S0, P, H) of Fig. 3: upward ranks
//     over the unfinished jobs, then EFT-minimising placement.
//
// The rank/FEA/placement machinery itself lives in the shared scheduling
// kernel (internal/kernel); this package owns the execution-state model
// (ExecState, Snapshot) and exposes Reschedule as the stable one-shot
// entry point, converting the map-based snapshot into the kernel's dense
// state. Engine code that reschedules repeatedly (internal/planner) holds
// a kernel and a dense state directly and skips the conversion. FEA here
// is the map-based reference implementation of Eq. 1 that the property
// suites cross-check the kernel against.
//
// When clock == 0 and no job has run, Reschedule degenerates to classic
// HEFT exactly, as §3.4 requires ("AHEFT is identical to HEFT when
// clock = 0").
package core

import (
	"fmt"
	"sort"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/schedule"
)

// FinishedJob records the actual outcome of a job that completed before the
// rescheduling clock: where it ran and its actual finish time AFT.
type FinishedJob struct {
	Resource grid.ID
	AST      float64 // actual start time
	AFT      float64 // actual finish time
}

// EdgeKey identifies the data file one job ships to one successor. The
// paper's data matrix is per job pair (data_{i,k}), so file availability
// is tracked per edge: the blocks a FileBreaker hands its k successors
// are k different files.
type EdgeKey struct {
	From, To dag.JobID
}

// ExecState is the snapshot of a partially executed workflow at the moment
// the Planner reschedules. It is derived from the current schedule S0 plus
// the execution history up to Clock.
type ExecState struct {
	// Clock is the logical time of rescheduling.
	Clock float64
	// Finished maps every completed job to its actual outcome. A finished
	// job's outputs are always available on its own resource from AFT
	// onward (Eq. 1 Case 1).
	Finished map[dag.JobID]FinishedJob
	// TransferAt[{m,k}][r] is the earliest time the (m → k) file is (or
	// will be, for an in-flight transfer) available on resource r, over
	// the transfers the executed prefix of S0 already initiated under the
	// static ship-on-finish policy. Eq. 1's "scheduled to transfer"
	// condition reads this; absence forces Case 2, a fresh transfer that
	// cannot start before Clock.
	TransferAt map[EdgeKey]map[grid.ID]float64
	// Pinned holds jobs that are mid-execution at Clock and keep their
	// current assignment (the default; validated by the Fig. 5 worked
	// example, where the running n3 keeps its slot). Under the
	// RestartRunning ablation the map is empty and running jobs are
	// rescheduled like unstarted ones, losing their partial work.
	Pinned map[dag.JobID]schedule.Assignment
}

// NewExecState returns an empty snapshot at clock 0 — the state for an
// initial scheduling round, under which Reschedule is exactly HEFT.
func NewExecState() *ExecState {
	return &ExecState{
		Finished:   make(map[dag.JobID]FinishedJob),
		TransferAt: make(map[EdgeKey]map[grid.ID]float64),
		Pinned:     make(map[dag.JobID]schedule.Assignment),
	}
}

// SetTransfer records that the (m → k) file is available on r at time t,
// keeping the earliest time if called twice.
func (st *ExecState) SetTransfer(m, k dag.JobID, r grid.ID, t float64) {
	key := EdgeKey{From: m, To: k}
	row := st.TransferAt[key]
	if row == nil {
		row = make(map[grid.ID]float64)
		st.TransferAt[key] = row
	}
	if old, ok := row[r]; !ok || t < old {
		row[r] = t
	}
}

// TransferCredit selects which previously initiated file transfers a
// reschedule may count on (the OutputAt entries Snapshot records). It is
// the kernel's type; the Credit* constants are re-exported here for the
// v1 signatures.
type TransferCredit = kernel.TransferCredit

const (
	// CreditAll credits completed and in-flight transfers: a file already
	// moving toward a resource arrives there at its original ETA even if
	// the consumer is rescheduled elsewhere.
	CreditAll = kernel.CreditAll
	// CreditDelivered credits only transfers that completed by clock;
	// in-flight transfers are treated as cancelled by the reschedule.
	CreditDelivered = kernel.CreditDelivered
	// CreditNone credits nothing beyond the producer's own resource:
	// every cross-resource read pays a fresh transfer from clock.
	CreditNone = kernel.CreditNone
)

// SnapshotOptions controls how Snapshot derives an ExecState from a
// schedule (an alias of the kernel's option type).
type SnapshotOptions = kernel.SnapshotOptions

// Snapshot derives the execution state of schedule s0 executed faithfully
// (accurate estimates: actual times equal scheduled times) up to clock.
// The static file-transfer policy is applied: when a job finishes, its
// output is immediately shipped to the resource of every scheduled
// successor (paper §4.1 assumption 2).
//
// This is the map-based form consumed by inspection code and the what-if
// API; kernel.State.Snapshot is its dense equivalent on the hot path, and
// the property suites hold the two to identical reschedules.
func Snapshot(g *dag.Graph, est cost.Estimator, s0 *schedule.Schedule, clock float64, opts SnapshotOptions) *ExecState {
	st := NewExecState()
	st.Clock = clock
	if s0 == nil {
		return st
	}
	for _, j := range g.Jobs() {
		a, ok := s0.Get(j.ID)
		if !ok {
			continue
		}
		switch {
		case a.Finish <= clock:
			st.Finished[j.ID] = FinishedJob{Resource: a.Resource, AST: a.Start, AFT: a.Finish}
			for _, e := range g.Succs(j.ID) {
				st.SetTransfer(j.ID, e.To, a.Resource, a.Finish)
				sa, ok := s0.Get(e.To)
				if !ok || opts.Credit == CreditNone {
					continue
				}
				// Transfer initiated at AFT toward the successor's
				// scheduled resource; it may still be in flight.
				eta := a.Finish + est.Comm(e, a.Resource, sa.Resource)
				if opts.Credit == CreditDelivered && eta > clock {
					continue
				}
				st.SetTransfer(j.ID, e.To, sa.Resource, eta)
			}
		case a.Start < clock && !opts.RestartRunning:
			st.Pinned[j.ID] = a
		}
	}
	return st
}

// Options configures the AHEFT rescheduler — an alias of the kernel's
// placement options, so the two layers cannot drift apart.
type Options = kernel.Options

// LoadState replays a map-based snapshot into the kernel's dense state:
// clock, finished outcomes, pinned assignments and the whole transfer
// ledger. The engine uses it to hand executor-derived snapshots to the
// kernel; Reschedule uses it for one-shot calls.
func LoadState(dst *kernel.State, st *ExecState) {
	dst.Reset()
	if st == nil {
		return
	}
	dst.Clock = st.Clock
	for j, f := range st.Finished {
		dst.Finish(j, f.Resource, f.AST, f.AFT)
	}
	for _, a := range st.Pinned {
		dst.Pin(a)
	}
	for key, row := range st.TransferAt {
		for r, t := range row {
			dst.SetTransfer(key.From, key.To, r, t)
		}
	}
}

// Reschedule implements procedure schedule(S0, P, H) of Fig. 3. It returns
// a complete schedule S1 covering every job of g: finished jobs keep their
// actual assignments, pinned running jobs keep their current assignments,
// and every other job is re-placed by the EFT-minimising loop over the
// resource set rs (the resources available at st.Clock). The caller
// compares S1's makespan with S0's and adopts S1 only if smaller (Fig. 2,
// lines 7–9).
//
// This is the stable one-shot entry point: it builds a fresh kernel per
// call. Engine loops that reschedule at every event hold a kernel.Kernel
// (and its dense State) across calls instead, which also reuses the rank
// cache and placement scratch.
func Reschedule(g *dag.Graph, est cost.Estimator, rs []grid.Resource, st *ExecState, opts Options) (*schedule.Schedule, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("aheft: empty resource set")
	}
	k := kernel.New(g, est)
	hint := 0
	for _, r := range rs {
		if int(r.ID)+1 > hint {
			hint = int(r.ID) + 1
		}
	}
	ks := k.NewState(hint)
	LoadState(ks, st)
	return k.Reschedule(rs, ks, opts)
}

// FEA implements Eq. 1: the earliest time the output of predecessor m is
// available on resource r for its successor (the job being placed), given
// the new partial schedule s1 and the snapshot st.
//
// This is the map-based reference form — the kernel evaluates the same
// four cases over its dense state on the hot path, and the property
// suites cross-check kernel placements against this function.
func FEA(g *dag.Graph, est cost.Estimator, st *ExecState, s1 *schedule.Schedule, e dag.Edge, r grid.ID) float64 {
	m := e.From
	if f, done := st.Finished[m]; done {
		if t, ok := st.TransferAt[EdgeKey{From: m, To: e.To}][r]; ok {
			// Case 1 (and its in-flight variant): the file is on r —
			// either produced there (t = AFT) or delivered by a transfer
			// the old schedule already initiated.
			return t
		}
		// Case 2: finished elsewhere and the file was never directed at
		// r — a fresh transfer starts now; it cannot start in the past.
		return st.Clock + est.Comm(e, f.Resource, r)
	}
	// Unfinished predecessor: it has already been placed in s1 (rank order
	// guarantees predecessors precede successors).
	pa, ok := s1.Get(m)
	if !ok {
		panic(fmt.Sprintf("aheft: FEA called before predecessor %d placed", m))
	}
	if pa.Resource == r {
		// Case 3: produced on this very resource in the new schedule.
		return pa.Finish
	}
	// Otherwise: produced elsewhere in the new schedule, transfer follows
	// its (re)scheduled finish time SFT(m).
	return pa.Finish + est.Comm(e, pa.Resource, r)
}

// RemainingMakespan returns the makespan of schedule s — max finish over
// all jobs, finished or not. Both S0 and S1 cover the full job set, so the
// Fig. 2 comparison S0.makespan > S1.makespan is a direct comparison of
// this value.
func RemainingMakespan(s *schedule.Schedule) float64 { return s.Makespan() }

// Better reports whether candidate improves on current by more than eps —
// the adoption test of Fig. 2 line 7, with a small tolerance so that
// floating-point noise never triggers a spurious schedule switch.
func Better(current, candidate float64, eps float64) bool {
	if eps <= 0 {
		eps = 1e-9
	}
	return candidate < current-eps
}

// SortedJobs returns the snapshot's finished jobs in ID order; useful for
// deterministic reporting.
func (st *ExecState) SortedJobs() []dag.JobID {
	out := make([]dag.JobID, 0, len(st.Finished))
	for j := range st.Finished {
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Unfinished returns how many of g's jobs are neither finished nor pinned
// in the snapshot.
func (st *ExecState) Unfinished(g *dag.Graph) int {
	n := 0
	for _, j := range g.Jobs() {
		if _, done := st.Finished[j.ID]; done {
			continue
		}
		if _, pinned := st.Pinned[j.ID]; pinned {
			continue
		}
		n++
	}
	return n
}

// Progress returns the fraction of jobs finished at the snapshot, in
// [0, 1].
func (st *ExecState) Progress(g *dag.Graph) float64 {
	if g.Len() == 0 {
		return 0
	}
	return float64(len(st.Finished)) / float64(g.Len())
}

// Validate checks internal consistency of a snapshot: finish times do
// not exceed the clock, outputs are never available before their producer
// finishes, and pinned assignments straddle the clock. The executor calls
// this in race-free debug paths and tests exercise it directly.
func (st *ExecState) Validate() error {
	for j, f := range st.Finished {
		if f.AFT > st.Clock+1e-9 {
			return fmt.Errorf("aheft: job %d finished at %g after clock %g", j, f.AFT, st.Clock)
		}
		if f.AST > f.AFT {
			return fmt.Errorf("aheft: job %d has AST %g > AFT %g", j, f.AST, f.AFT)
		}
	}
	for k, row := range st.TransferAt {
		f, ok := st.Finished[k.From]
		if !ok {
			return fmt.Errorf("aheft: transfer recorded for unfinished producer %d", k.From)
		}
		if t, ok := row[f.Resource]; !ok || t != f.AFT {
			return fmt.Errorf("aheft: file (%d→%d) on producer's resource at %g, want AFT %g",
				k.From, k.To, t, f.AFT)
		}
		for r, t := range row {
			if t < f.AFT-1e-9 {
				return fmt.Errorf("aheft: file (%d→%d) available on r%d at %g before AFT %g",
					k.From, k.To, r, t, f.AFT)
			}
		}
	}
	for j, a := range st.Pinned {
		if _, done := st.Finished[j]; done {
			return fmt.Errorf("aheft: job %d both finished and pinned", j)
		}
		if a.Start > st.Clock || a.Finish <= st.Clock {
			return fmt.Errorf("aheft: pinned job %d [%g,%g) does not straddle clock %g", j, a.Start, a.Finish, st.Clock)
		}
	}
	return nil
}
