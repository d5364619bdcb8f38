package kernel

import (
	"fmt"
	"slices"
	"sync"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/schedule"
)

// SnapshotOptions controls how Snapshot derives a State from a schedule.
type SnapshotOptions struct {
	// RestartRunning reschedules jobs that are mid-execution at clock,
	// discarding their partial work, instead of pinning them to their
	// current assignment. The paper's semantics (reproducing the Fig. 5
	// makespan of 76) pin running jobs; restart is an ablation.
	RestartRunning bool
}

// State is the dense execution-status snapshot the kernel schedules
// against — Clock, finished jobs, pinned running jobs, and the per-edge
// file-availability ledger of Eq. 1 — stored in job- and edge-indexed
// arrays so the FEA hot loop reads it without hashing and the whole
// structure resets without reallocating.
//
// The transfer ledger is an (edge × resource) matrix stamped with an
// epoch counter: Reset bumps the epoch instead of clearing the matrix,
// so resetting costs O(jobs) regardless of how many transfers the
// previous run recorded.
//
// A State belongs to the Kernel that created it and shares its lifetime
// and single-goroutine discipline. Release hands its arrays to the next
// NewState, of any kernel.
type State struct {
	k *Kernel

	// Clock is the logical time of rescheduling.
	Clock float64

	finRes []grid.ID // grid.NoResource = not finished
	finAST []float64
	finAFT []float64
	nFin   int

	isPin []bool
	pin   []schedule.Assignment

	led    []float64 // led[edge*stride+res]: earliest availability of the edge's file on res
	ledEp  []uint32
	epoch  uint32
	stride int      // resources per ledger row
	set    []uint64 // the entries set this epoch, as edge<<32 | resource

	// File-keyed ledger (data-aware mode only): earliest availability of
	// each catalog file on each resource, fed by the same SetTransfer
	// writes as the edge ledger. This is what lets an input staged for one
	// consumer satisfy every other edge naming the same file.
	fled   []float64 // fled[file*stride+res]
	fledEp []uint32
}

// states holds released States; NewState takes their arrays over.
var states = sync.Pool{New: func() any { return new(State) }}

// NewState returns a fresh empty state at clock 0. resHint sizes the
// transfer ledger for the given number of resources; the ledger grows on
// demand if more resources appear later (pass pool.Size() to avoid the
// regrowth).
func (k *Kernel) NewState(resHint int) *State {
	st := states.Get().(*State)
	old := *st
	*st = State{
		k:      k,
		finRes: sized(old.finRes, k.n),
		finAST: sized(old.finAST, k.n),
		finAFT: sized(old.finAFT, k.n),
		isPin:  sized(old.isPin, k.n),
		pin:    sized(old.pin, k.n),
		epoch:  1,
		// Spare ledger arrays: growLedger sizes and clears them (stride 0).
		led: old.led, ledEp: old.ledEp, fled: old.fled, fledEp: old.fledEp, set: old.set[:0],
	}
	for j := range st.finRes {
		st.finRes[j] = grid.NoResource
	}
	if resHint > 0 {
		st.growLedger(resHint)
	}
	return st
}

// Release returns the state's arrays for reuse by a later NewState; st
// must not be used afterwards.
func (st *State) Release() {
	st.k = nil
	states.Put(st)
}

// sized returns buf cut to n zeroed elements, reusing its array when it
// is large enough.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Reset empties the state: clock 0, nothing finished, nothing pinned,
// no transfers recorded. Buffers are retained.
func (st *State) Reset() {
	st.Clock = 0
	st.nFin = 0
	for j := range st.finRes {
		st.finRes[j] = grid.NoResource
	}
	st.ClearPinned()
	st.set = st.set[:0]
	st.epoch++
	if st.epoch == 0 { // uint32 wrap: actually clear, then restart epochs
		clear(st.ledEp)
		clear(st.fledEp)
		st.epoch = 1
	}
}

// ClearPinned unpins every job (the engine rebuilds the pinned set at
// each event from the current schedule).
func (st *State) ClearPinned() { clear(st.isPin) }

// Finish records job j as completed on res over [ast, aft). Re-recording
// a job overwrites its outcome.
func (st *State) Finish(j dag.JobID, res grid.ID, ast, aft float64) {
	if st.finRes[j] == grid.NoResource {
		st.nFin++
	}
	st.finRes[j] = res
	st.finAST[j] = ast
	st.finAFT[j] = aft
}

// Finished reports whether job j is recorded as completed.
func (st *State) Finished(j dag.JobID) bool { return st.finRes[j] != grid.NoResource }

// FinishedCount returns how many jobs are recorded as completed.
func (st *State) FinishedCount() int { return st.nFin }

// FinishedOutcome returns where a finished job ran and its actual start
// and finish times; res is grid.NoResource if the job is not finished.
func (st *State) FinishedOutcome(j dag.JobID) (res grid.ID, ast, aft float64) {
	return st.finRes[j], st.finAST[j], st.finAFT[j]
}

// Pin records job j as mid-execution, keeping assignment a.
func (st *State) Pin(a schedule.Assignment) {
	st.isPin[a.Job] = true
	st.pin[a.Job] = a
}

// Unpin returns a pinned job j to the jobs a reschedule places.
func (st *State) Unpin(j dag.JobID) { st.isPin[j] = false }

// Pinned reports whether job j is pinned.
func (st *State) Pinned(j dag.JobID) bool { return st.isPin[j] }

// Unfinished returns how many jobs are neither finished nor pinned.
func (st *State) Unfinished() int {
	n := 0
	for j := range st.finRes {
		if st.finRes[j] == grid.NoResource && !st.isPin[j] {
			n++
		}
	}
	return n
}

// growLedger (re)shapes the (edge × resource) ledger to cover nRes
// resources, preserving recorded entries. A state without a ledger yet
// (stride 0) cuts it from the spare arrays NewState kept, if they are
// large enough.
func (st *State) growLedger(nRes int) {
	if nRes <= st.stride {
		return
	}
	// Grow with headroom so a pool that adds resources one event at a
	// time does not re-layout the ledger per event.
	if nRes < st.stride*2 {
		nRes = st.stride * 2
	}
	st.led, st.ledEp = relayout(st.led, st.stride, nRes, st.k.nEdges), relayout(st.ledEp, st.stride, nRes, st.k.nEdges)
	if st.k.dataM != nil {
		nf := st.k.dataM.NumFiles()
		st.fled, st.fledEp = relayout(st.fled, st.stride, nRes, nf), relayout(st.fledEp, st.stride, nRes, nf)
	}
	st.stride = nRes
}

// relayout returns a rows × nRes matrix holding the rows × stride matrix
// old in its first columns and zeros elsewhere. With stride 0 old is a
// spare array, reused when it is large enough.
func relayout[T any](old []T, stride, nRes, rows int) []T {
	if stride == 0 {
		return sized(old, rows*nRes)
	}
	out := make([]T, rows*nRes)
	for r := 0; r < rows; r++ {
		copy(out[r*nRes:r*nRes+stride], old[r*stride:(r+1)*stride])
	}
	return out
}

// SetTransfer records that the (m → j) file is (or will be) available on
// resource r at time t, keeping the earliest time if recorded twice.
// Unknown edges are ignored (the engine only records real dependences).
func (st *State) SetTransfer(m, j dag.JobID, r grid.ID, t float64) {
	e := st.k.edgeIndex(m, j)
	if e < 0 {
		return
	}
	if int(r) >= st.stride {
		st.growLedger(int(r) + 1)
	}
	i := e*st.stride + int(r)
	if st.ledEp[i] != st.epoch {
		if st.set == nil {
			st.set = make([]uint64, 0, st.k.nEdges)
		}
		st.set = append(st.set, uint64(e)<<32|uint64(r))
	}
	if st.ledEp[i] != st.epoch || st.led[i] > t {
		st.led[i] = t
		st.ledEp[i] = st.epoch
	}
	if st.k.fileOfEdge != nil {
		if f := st.k.fileOfEdge[e]; f >= 0 {
			fi := f*st.stride + int(r)
			if st.fledEp[fi] != st.epoch || st.fled[fi] > t {
				st.fled[fi] = t
				st.fledEp[fi] = st.epoch
			}
		}
	}
}

// fileAt returns the recorded availability of catalog file f on r
// (data-aware mode only).
func (st *State) fileAt(f int, r grid.ID) (float64, bool) {
	if int(r) >= st.stride {
		return 0, false
	}
	i := f*st.stride + int(r)
	if st.fledEp[i] != st.epoch {
		return 0, false
	}
	return st.fled[i], true
}

// PredTransferAt returns the recorded availability on r of the file of
// the i-th incoming edge of j.
func (st *State) PredTransferAt(j dag.JobID, i int, r grid.ID) (float64, bool) {
	return st.transfer(st.k.predBase[j]+i, r)
}

func (st *State) transfer(e int, r grid.ID) (float64, bool) {
	if int(r) >= st.stride {
		return 0, false
	}
	i := e*st.stride + int(r)
	if st.ledEp[i] != st.epoch {
		return 0, false
	}
	return st.led[i], true
}

// ForEachTransfer calls fn for every transfer recorded in the current
// epoch — (from → to) file available on resource r at time t — in
// deterministic (edge index, then resource) order. The daemon's
// durability layer serialises the ledger through this; SetTransfer in
// the same order reproduces it exactly (a fresh ledger keeps the first,
// i.e. recorded, time).
func (st *State) ForEachTransfer(fn func(from, to dag.JobID, r grid.ID, at float64)) {
	slices.Sort(st.set)
	j := 0 // the job the edge leads to: edges are numbered by it
	for _, key := range st.set {
		e, r := int(key>>32), int(uint32(key))
		for st.k.predBase[j+1] <= e {
			j++
		}
		fn(st.k.g.Preds(dag.JobID(j))[e-st.k.predBase[j]].From, dag.JobID(j), grid.ID(r), st.led[e*st.stride+r])
	}
}

// fea implements Eq. 1 on the dense state: the earliest time the output
// of predecessor e.From is available on resource r for the job being
// placed, given the current candidate placements in the kernel's scratch.
// eIdx is the dense index of e (predBase[e.To]+i for the i-th pred).
func (st *State) fea(e dag.Edge, eIdx int, r grid.ID) float64 {
	m := e.From
	if fr := st.finRes[m]; fr != grid.NoResource {
		if t, ok := st.transfer(eIdx, r); ok {
			// Case 1 (and its in-flight variant): the file is on r —
			// either produced there (t = AFT) or delivered by a transfer
			// the old schedule already initiated.
			return t
		}
		// Case 2: finished elsewhere and the file was never directed at
		// r — a fresh transfer starts now; it cannot start in the past.
		return st.Clock + cost.Comm(e, fr, r)
	}
	// Unfinished predecessor: it has already been placed in the candidate
	// (rank order guarantees predecessors precede successors), or it is
	// pinned (merged into the placement template).
	pa := st.k.placed[m]
	if pa.Resource == grid.NoResource {
		panic(fmt.Sprintf("kernel: FEA called before predecessor %d placed", m))
	}
	if pa.Resource == r {
		// Case 3: produced on this very resource in the new schedule.
		return pa.Finish
	}
	// Case 4: produced elsewhere in the new schedule; the transfer
	// follows its (re)scheduled finish time SFT(m).
	return pa.Finish + cost.Comm(e, pa.Resource, r)
}

// Ship applies the static file-transfer policy (paper §4.1 assumption 2)
// to job j finishing on r at fin: each output file is on r from fin and
// starts moving toward its consumer's resource in plan at once. commEst
// prices the move with the derived file cost when a data model is bound,
// cost.Comm otherwise.
func (st *State) Ship(j dag.JobID, r grid.ID, fin float64, plan *schedule.Schedule) {
	for _, e := range st.k.g.Succs(j) {
		st.SetTransfer(j, e.To, r, fin)
		if sa, ok := plan.Get(e.To); ok {
			st.SetTransfer(j, e.To, sa.Resource, fin+st.k.commEst(e, r, sa.Resource))
		}
	}
}

// Snapshot derives the execution state of schedule s0 executed faithfully
// (accurate estimates: actual times equal scheduled times) up to clock,
// replacing the state's previous contents without allocating. Every job
// finished by clock is shipped (Ship); a transfer it initiated may still
// be in flight, and a reschedule counts on its ETA.
func (st *State) Snapshot(s0 *schedule.Schedule, clock float64, opts SnapshotOptions) {
	st.Reset()
	st.Clock = clock
	if s0 == nil {
		return
	}
	for _, j := range st.k.g.Jobs() {
		a, ok := s0.Get(j.ID)
		if !ok {
			continue
		}
		switch {
		case a.Finish <= clock:
			st.Finish(j.ID, a.Resource, a.Start, a.Finish)
			st.Ship(j.ID, a.Resource, a.Finish, s0)
		case a.Start < clock && !opts.RestartRunning:
			st.Pin(a)
		}
	}
}
