package kernel_test

// Map-based reference implementations of the snapshot (execState,
// refSnapshot), Eq. 1 (refFEA), the insertion-based slot search
// (earliestStart) and the Eq. 2–3 EFT step (placeJob). They
// follow the paper's formalisation directly, share no code with the dense
// kernel, and exist so the property suites can cross-check the kernel's
// schedules, ledgers and input-feasibility against an independent model.

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/rng"
	"aheft/internal/schedule"
)

// finishedJob records the actual outcome of a job that completed before
// the rescheduling clock: where it ran and its actual start and finish.
type finishedJob struct {
	Resource grid.ID
	AST, AFT float64
}

// edgeKey identifies the data file one job ships to one successor: the
// paper's data matrix is per job pair, so availability is per edge.
type edgeKey struct{ From, To dag.JobID }

// execState is the snapshot of a partially executed workflow at Clock:
// finished outcomes, the per-edge file-availability ledger Eq. 1's
// "scheduled to transfer" condition reads, and the running jobs pinned
// to their current assignments.
type execState struct {
	Clock      float64
	Finished   map[dag.JobID]finishedJob
	TransferAt map[edgeKey]map[grid.ID]float64
	Pinned     map[dag.JobID]schedule.Assignment
}

// newExecState returns an empty snapshot at clock 0.
func newExecState() *execState {
	return &execState{
		Finished:   make(map[dag.JobID]finishedJob),
		TransferAt: make(map[edgeKey]map[grid.ID]float64),
		Pinned:     make(map[dag.JobID]schedule.Assignment),
	}
}

// setTransfer records that the (m → k) file is available on r at time t,
// keeping the earliest time if called twice.
func (st *execState) setTransfer(m, k dag.JobID, r grid.ID, t float64) {
	key := edgeKey{From: m, To: k}
	row := st.TransferAt[key]
	if row == nil {
		row = make(map[grid.ID]float64)
		st.TransferAt[key] = row
	}
	if old, ok := row[r]; !ok || t < old {
		row[r] = t
	}
}

// refSnapshot derives the execution state of s0 executed faithfully up to
// clock under the static ship-on-finish policy: when a job finishes, its
// output is shipped at once to the resource of every scheduled successor.
// Transfers are priced by cost.Comm.
func refSnapshot(g *dag.Graph, s0 *schedule.Schedule, clock float64, opts kernel.SnapshotOptions) *execState {
	st := newExecState()
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
			st.Finished[j.ID] = finishedJob{Resource: a.Resource, AST: a.Start, AFT: a.Finish}
			for _, e := range g.Succs(j.ID) {
				st.setTransfer(j.ID, e.To, a.Resource, a.Finish)
				if sa, ok := s0.Get(e.To); ok {
					st.setTransfer(j.ID, e.To, sa.Resource, a.Finish+cost.Comm(e, a.Resource, sa.Resource))
				}
			}
		case a.Start < clock && !opts.RestartRunning:
			st.Pinned[j.ID] = a
		}
	}
	return st
}

// loadState replays a map-based snapshot into the kernel's dense state.
func loadState(dst *kernel.State, st *execState) {
	dst.Reset()
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

// refReschedule is procedure schedule(S0, P, H) of Fig. 3 over a
// map-based snapshot: a fresh kernel per call, fed through loadState.
func refReschedule(g *dag.Graph, est cost.Estimator, rs []grid.Resource, st *execState, opts kernel.Options) (*schedule.Schedule, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("reference: empty resource set")
	}
	k := kernel.New(g, est)
	hint := 0
	for _, r := range rs {
		hint = max(hint, int(r.ID)+1)
	}
	ks := k.NewState(hint)
	loadState(ks, st)
	return k.Reschedule(rs, ks, opts)
}

// refFEA implements Eq. 1: the earliest time the output of e.From is
// available on resource r for e.To, given the new partial schedule s1
// and the snapshot st.
func refFEA(st *execState, s1 *schedule.Schedule, e dag.Edge, r grid.ID) float64 {
	m := e.From
	if f, done := st.Finished[m]; done {
		if t, ok := st.TransferAt[edgeKey{From: m, To: e.To}][r]; ok {
			// Case 1 (and its in-flight variant): the file is on r.
			return t
		}
		// Case 2: finished elsewhere and never directed at r — a fresh
		// transfer starts now; it cannot start in the past.
		return st.Clock + cost.Comm(e, f.Resource, r)
	}
	pa, ok := s1.Get(m)
	if !ok {
		panic(fmt.Sprintf("reference: FEA called before predecessor %d placed", m))
	}
	if pa.Resource == r {
		// Case 3: produced on this very resource in the new schedule.
		return pa.Finish
	}
	// Case 4: produced elsewhere; the transfer follows SFT(m).
	return pa.Finish + cost.Comm(e, pa.Resource, r)
}

// earliestStart finds the earliest start time >= ready at which a task of
// the given duration fits on resource r of s.
//
// With insertion enabled this is HEFT's insertion-based policy: idle gaps
// between consecutive assignments are considered, so a short job can slot
// in front of longer ones without delaying them. With insertion disabled
// the job can only go after the last assignment.
func earliestStart(s *schedule.Schedule, r grid.ID, ready, duration float64, insertion bool) float64 {
	tl := s.Timelines()[r]
	if len(tl) == 0 {
		return ready
	}
	if !insertion {
		return math.Max(tl[len(tl)-1].Finish, ready)
	}
	if first := tl[0].Start; ready+duration <= first {
		return ready
	}
	for i := 0; i < len(tl)-1; i++ {
		start := math.Max(tl[i].Finish, ready)
		if start+duration <= tl[i+1].Start {
			return start
		}
	}
	return math.Max(tl[len(tl)-1].Finish, ready)
}

func TestEarliestStartAppend(t *testing.T) {
	s := schedule.New()
	s.Assign(schedule.Assignment{Job: 1, Resource: 0, Start: 0, Finish: 10})
	if got := earliestStart(s, 0, 0, 5, false); got != 10 {
		t.Fatalf("append after busy: got %g, want 10", got)
	}
	if got := earliestStart(s, 0, 15, 5, false); got != 15 {
		t.Fatalf("append with late ready: got %g, want 15", got)
	}
	if got := earliestStart(s, 5, 3, 5, false); got != 3 {
		t.Fatalf("empty resource: got %g, want 3", got)
	}
}

func TestEarliestStartInsertion(t *testing.T) {
	s := schedule.New()
	s.Assign(schedule.Assignment{Job: 1, Resource: 0, Start: 10, Finish: 20})
	s.Assign(schedule.Assignment{Job: 2, Resource: 0, Start: 30, Finish: 40})
	// Fits before the first assignment.
	if got := earliestStart(s, 0, 0, 10, true); got != 0 {
		t.Fatalf("gap before first: got %g, want 0", got)
	}
	// Ready too late for the head gap, fits the middle gap exactly.
	if got := earliestStart(s, 0, 15, 10, true); got != 20 {
		t.Fatalf("middle gap: got %g, want 20", got)
	}
	// Ready time inside the middle gap.
	if got := earliestStart(s, 0, 25, 5, true); got != 25 {
		t.Fatalf("ready in gap: got %g, want 25", got)
	}
	// Nothing fits: append.
	if got := earliestStart(s, 0, 0, 50, true); got != 40 {
		t.Fatalf("append: got %g, want 40", got)
	}
	// Without insertion the gaps are invisible.
	if got := earliestStart(s, 0, 0, 5, false); got != 40 {
		t.Fatalf("no-insertion: got %g, want 40", got)
	}
}

// TestEarliestStartNeverOverlaps is the core safety property of the slot
// search: whatever the history of assignments, placing a job at the
// returned start never overlaps an existing assignment on that resource.
func TestEarliestStartNeverOverlaps(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		s := schedule.New()
		// Build a random but valid timeline by always placing at the
		// earliest feasible slot.
		for j := 0; j < 30; j++ {
			ready := r.Uniform(0, 50)
			dur := r.Uniform(1, 10)
			res := grid.ID(r.IntN(3))
			start := earliestStart(s, res, ready, dur, r.Float64() < 0.5)
			if start < ready {
				return false
			}
			a := schedule.Assignment{Job: dag.JobID(j), Resource: res, Start: start, Finish: start + dur}
			for _, b := range s.Timelines()[res] {
				if a.Start < b.Finish && b.Start < a.Finish {
					return false // overlap
				}
			}
			s.Assign(a)
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// placeJob computes the EFT-minimising assignment for one job given the
// partial schedule s, in which every predecessor of the job must already
// be assigned; floor is a lower bound on the start time.
func placeJob(g *dag.Graph, est cost.Estimator, rs []grid.Resource, s *schedule.Schedule, job dag.JobID, floor float64, insertion bool) (schedule.Assignment, error) {
	best := schedule.Assignment{Job: job, Resource: grid.NoResource}
	for _, r := range rs {
		ready := floor
		for _, e := range g.Preds(job) {
			pa, ok := s.Get(e.From)
			if !ok {
				return best, fmt.Errorf("reference: predecessor %d of job %d not yet scheduled", e.From, job)
			}
			ready = max(ready, pa.Finish+cost.Comm(e, pa.Resource, r.ID))
		}
		w := est.Comp(job, r.ID)
		start := earliestStart(s, r.ID, ready, w, insertion)
		if best.Resource == grid.NoResource || start+w < best.Finish {
			best = schedule.Assignment{Job: job, Resource: r.ID, Start: start, Finish: start + w}
		}
	}
	if best.Resource == grid.NoResource {
		return best, fmt.Errorf("reference: no resource available for job %d", job)
	}
	return best, nil
}

// checkState is the snapshot validator, over the dense state s0 was
// snapshotted into: finish times do not exceed the clock, every file is
// on its producer's resource at AFT and nowhere before it, and pinned
// jobs (which keep their s0 assignments) straddle the clock.
func checkState(g *dag.Graph, st *kernel.State, s0 *schedule.Schedule) error {
	for _, j := range g.Jobs() {
		fr, ast, aft := st.FinishedOutcome(j.ID)
		if fr != grid.NoResource {
			if aft > st.Clock+1e-9 {
				return fmt.Errorf("job %d finished at %g after clock %g", j.ID, aft, st.Clock)
			}
			if ast > aft {
				return fmt.Errorf("job %d has AST %g > AFT %g", j.ID, ast, aft)
			}
			if st.Pinned(j.ID) {
				return fmt.Errorf("job %d both finished and pinned", j.ID)
			}
		}
		if st.Pinned(j.ID) {
			if a := s0.MustGet(j.ID); a.Start > st.Clock || a.Finish <= st.Clock {
				return fmt.Errorf("pinned job %d [%g,%g) does not straddle clock %g", j.ID, a.Start, a.Finish, st.Clock)
			}
		}
	}
	var err error
	st.ForEachTransfer(func(from, to dag.JobID, r grid.ID, at float64) {
		fr, _, aft := st.FinishedOutcome(from)
		switch {
		case err != nil:
		case fr == grid.NoResource:
			err = fmt.Errorf("transfer recorded for unfinished producer %d", from)
		case at < aft-1e-9:
			err = fmt.Errorf("file (%d→%d) available on r%d at %g before AFT %g", from, to, r, at, aft)
		default:
			if t, ok := st.TransferAt(from, to, fr); !ok || t != aft {
				err = fmt.Errorf("file (%d→%d) on producer's resource at %g, want AFT %g", from, to, t, aft)
			}
		}
	})
	return err
}

// sameState reports the first difference between the dense state st and
// the map-based ref: the finished outcomes, the pinned assignments and
// every ledger entry must agree exactly.
func sameState(g *dag.Graph, st *kernel.State, ref *execState) error {
	for _, j := range g.Jobs() {
		fr, ast, aft := st.FinishedOutcome(j.ID)
		f, done := ref.Finished[j.ID]
		if done != (fr != grid.NoResource) || done && (f != finishedJob{Resource: fr, AST: ast, AFT: aft}) {
			return fmt.Errorf("job %d: finished %v %+v, reference %v %+v", j.ID, fr != grid.NoResource, finishedJob{fr, ast, aft}, done, f)
		}
		if _, pinned := ref.Pinned[j.ID]; pinned != st.Pinned(j.ID) {
			return fmt.Errorf("job %d: pinned %v, reference %v", j.ID, st.Pinned(j.ID), pinned)
		}
	}
	n := 0
	var err error
	st.ForEachTransfer(func(from, to dag.JobID, r grid.ID, at float64) {
		n++
		if want, ok := ref.TransferAt[edgeKey{From: from, To: to}][r]; err == nil && (!ok || want != at) {
			err = fmt.Errorf("file (%d→%d) on r%d at %g, reference %g (recorded %v)", from, to, r, at, want, ok)
		}
	})
	for _, row := range ref.TransferAt {
		n -= len(row)
	}
	if err == nil && n != 0 {
		err = fmt.Errorf("ledger has %d more entries than the reference", n)
	}
	return err
}
