package kernel

// Incremental (delta) rescheduling: react to a small perturbation without
// re-placing the whole remaining DAG.
//
// A full Incremental pass records a memo: the adopted placement of every
// base job, each job's per-resource probe outcome (the end of the slot the
// EFT search would claim on that resource), the ready-time floor and
// whether any Eq. 1 Case-2 (clock-relative transfer) fed it, dense
// snapshots of the execution state it was computed against, and copies of
// the placed-span rows and base timelines.
//
// The next Incremental pass diffs the current state against the memo and
// re-runs the EFT probe only for jobs in the dirty cone:
//
//   - input-dirty: a predecessor's finish/pin status changed, its pinned
//     interval drifted, or a ledger write landed on an incoming edge
//     (State.inputGen) — Eq. 1 answers may differ;
//   - clock-dirty: the clock advanced and the job's recorded ready floor
//     was below the new clock, or one of its FEA probes was clock-relative
//     (Case 2);
//   - slot-dirty: a resource's base timeline diverged (finished intervals,
//     pin drift, foreign reservations) or an earlier swept job moved, at a
//     time the job's recorded probe on that resource reaches past.
//
// Divergence is tracked per resource as a horizon div[r]: the earliest
// start time at which the memo's view of r and the current view differ.
// Both views keep rows sorted by (start, job), so the first positional
// mismatch between the remembered and the fresh base timeline yields the
// exact horizon, and a probe that ended at or before the horizon saw — and
// would see — identical spans (a slot decision can only flip if a span at
// or before the probe's claimed end changed). Clean jobs reuse the memoed
// assignment verbatim; dirty jobs re-probe against a 3-way merged view of
// the fresh base timeline, the memo's unmoved placed spans (filtered to
// earlier-rank, still-unfinished, still-unpinned owners), and an overlay
// of spans moved during this sweep. A job that moves lowers div on both
// its old and new resource, so later clean candidates that could be
// affected become suspects — the cascade is exact, never heuristic.
//
// The sweep aborts to a full replan (which re-records the memo) whenever
// it cannot prove the remainder unchanged: no or stale memo, estimator
// version drift, state reset or clock rewind, a changed resource set, a
// job re-entering the base set, or the cone exceeding MaxConeFrac of the
// base. The delta result is bit-identical to the full pass on the same
// snapshot — parity is enforced by property and fuzz tests.

import (
	"math"
	"slices"
	"sort"

	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/schedule"
)

// DeltaStats reports what the last Reschedule's incremental path did.
type DeltaStats struct {
	// Attempted is true when the pass ran with Options.Incremental.
	Attempted bool
	// Delta is true when the delta path produced the schedule; false means
	// a full replan ran (Reason says why).
	Delta bool
	// Reason is the fallback cause when Delta is false: "data-aware",
	// "no-memo", "tie-window", "no-insertion", "state-reset", "clock-rewind",
	// "estimates-drifted", "resource-set-changed", "base-grew" or
	// "cone-overflow".
	Reason string
	// Cone is the number of jobs re-probed; Moved how many changed
	// assignment; Base the number of jobs that were up for placement.
	Cone  int
	Moved int
	Base  int
}

// DeltaStats returns the incremental-path report of the last Reschedule.
func (k *Kernel) DeltaStats() DeltaStats { return k.delta }

// deltaMemo is the record of the last full Incremental pass. All
// job-indexed slices are k.n long; probeEnd is n × len(rs); rows and
// baseRows are grid-ID-indexed like the kernel timelines.
type deltaMemo struct {
	valid  bool
	estVer uint64
	clock  float64
	epoch  uint32
	rs     []grid.ID

	inBase  []bool
	rankPos []int32 // position in k.order (total rank order)
	placed  []schedule.Assignment

	probeStart []float64 // [job*len(rs)+ri]: start of the probed slot
	probeEnd   []float64 // [job*len(rs)+ri]: end of the probed slot
	readyMin   []float64 // min over resources of the probe's ready time
	case2      []bool    // any probe hit Eq. 1 Case 2 (clock-relative)

	// Execution-state snapshot the memo was computed against.
	finRes   []grid.ID
	finAST   []float64
	finAFT   []float64
	isPin    []bool
	pin      []schedule.Assignment
	inputGen []uint32

	rows     [][]span // per resource: placed spans of base jobs, (start, job)-sorted
	baseRows [][]span // per resource: copy of the base timeline at memo time

	// sched is a kernel-private copy of the last returned schedule. The
	// delta path patches the few changed entries in place and hands the
	// caller a Clone — straight memmoves — instead of re-materialising all
	// n assignments through FromAssignments.
	sched *schedule.Schedule
}

// deltaScratch is the per-pass working state of the delta sweep.
type deltaScratch struct {
	dirtyIn  []bool      // job: Eq. 1 inputs may have changed
	moved    []bool      // job: re-placed differently during this sweep
	div      []float64   // resource: divergence horizon (+Inf = identical)
	posOf    []int32     // resource ID → index in rs
	overlay  [][]span    // per resource: spans moved during this sweep
	dirtyRes []resMark   // resources with a finite horizon
	changed  []dag.JobID // jobs whose finished/pinned record changed
	rowTouch []bool      // resource: memo placed-row needs compaction
}

type resMark struct {
	ri int32
	id grid.ID
}

func (ds *deltaScratch) ensure(n, nRows int) {
	if len(ds.dirtyIn) < n {
		ds.dirtyIn = make([]bool, n)
		ds.moved = make([]bool, n)
	}
	for len(ds.div) < nRows {
		ds.div = append(ds.div, 0)
		ds.posOf = append(ds.posOf, 0)
		ds.overlay = append(ds.overlay, nil)
		ds.rowTouch = append(ds.rowTouch, false)
	}
}

// touchDiv lowers the divergence horizon of a resource to t, registering
// the resource as dirty on the first touch.
func (ds *deltaScratch) touchDiv(id grid.ID, t float64) {
	if t < ds.div[id] {
		if math.IsInf(ds.div[id], 1) {
			ds.dirtyRes = append(ds.dirtyRes, resMark{ri: ds.posOf[id], id: id})
		}
		ds.div[id] = t
	}
}

// rowDiv returns the divergence horizon between two (start, job)-sorted
// span rows: the start of the first positional mismatch (the earlier of
// the two starts), or +Inf when the rows are identical. Because both rows
// are sorted by the same total order, the first positional difference is
// the minimum start over their symmetric difference, so every span
// starting strictly before the returned horizon is present in both rows.
func rowDiv(old, cur []span) float64 {
	n := len(old)
	if len(cur) < n {
		n = len(cur)
	}
	for i := 0; i < n; i++ {
		if old[i] != cur[i] {
			if old[i].start < cur[i].start {
				return old[i].start
			}
			return cur[i].start
		}
	}
	switch {
	case len(old) > n:
		return old[n].start
	case len(cur) > n:
		return cur[n].start
	}
	return math.Inf(1)
}

// memoRecordable reports whether a full pass under opts can record a memo
// the delta path could replay: greedy order (tie-window exploration places
// under permuted orders the memo cannot reuse), insertion mode (the
// no-insertion append rule depends on the global timeline tail, which
// breaks horizon locality), and a versioned estimator (otherwise estimate
// drift is undetectable).
func (k *Kernel) memoRecordable(opts Options) bool {
	if opts.TieWindow != 0 || opts.NoInsertion {
		return false
	}
	if k.dataM != nil {
		// The memo's probe bounds don't model channel timelines or staged
		// files; data-aware passes always replan in full.
		return false
	}
	_, ok := k.est.(VersionedEstimator)
	return ok
}

// ensureMemo returns the kernel's memo, allocating or growing its buffers
// for the current graph and resource set.
func (k *Kernel) ensureMemo(rs []grid.Resource) *deltaMemo {
	mm := k.memo
	if mm == nil {
		mm = &deltaMemo{}
		k.memo = mm
	}
	n := k.n
	if mm.inBase == nil {
		mm.inBase = make([]bool, n)
		mm.rankPos = make([]int32, n)
		mm.placed = make([]schedule.Assignment, n)
		mm.readyMin = make([]float64, n)
		mm.case2 = make([]bool, n)
		mm.finRes = make([]grid.ID, n)
		mm.finAST = make([]float64, n)
		mm.finAFT = make([]float64, n)
		mm.isPin = make([]bool, n)
		mm.pin = make([]schedule.Assignment, n)
		mm.inputGen = make([]uint32, n)
	}
	if need := n * len(rs); cap(mm.probeEnd) < need {
		mm.probeStart = make([]float64, need)
		mm.probeEnd = make([]float64, need)
	} else {
		mm.probeStart = mm.probeStart[:need]
		mm.probeEnd = mm.probeEnd[:need]
	}
	maxID := grid.ID(-1)
	for _, r := range rs {
		if r.ID > maxID {
			maxID = r.ID
		}
	}
	for len(mm.rows) <= int(maxID) {
		mm.rows = append(mm.rows, nil)
		mm.baseRows = append(mm.baseRows, nil)
	}
	return mm
}

// finishMemo records the just-adopted full pass (k.bestPlaced over base)
// into the memo. Only called when memoRecordable held, i.e. the single
// greedy candidate is the adopted schedule.
func (k *Kernel) finishMemo(mm *deltaMemo, rs []grid.Resource, st *State, base []dag.JobID, _ Options) {
	mm.estVer = k.est.(VersionedEstimator).EstimateVersion()
	mm.clock = st.Clock
	mm.epoch = st.epoch
	mm.rs = mm.rs[:0]
	for _, r := range rs {
		mm.rs = append(mm.rs, r.ID)
	}
	for j := range mm.inBase {
		mm.inBase[j] = false
	}
	for _, job := range base {
		mm.inBase[job] = true
	}
	for i, job := range k.order {
		mm.rankPos[job] = int32(i)
	}
	copy(mm.placed, k.bestPlaced)
	copy(mm.finRes, st.finRes)
	copy(mm.finAST, st.finAST)
	copy(mm.finAFT, st.finAFT)
	copy(mm.isPin, st.isPin)
	copy(mm.pin, st.pin)
	copy(mm.inputGen, st.inputGen)
	for _, r := range rs {
		mm.rows[r.ID] = mm.rows[r.ID][:0]
		mm.baseRows[r.ID] = append(mm.baseRows[r.ID][:0], k.baseTL[r.ID]...)
	}
	for _, job := range base {
		a := k.bestPlaced[job]
		mm.rows[a.Resource] = append(mm.rows[a.Resource], span{start: a.Start, finish: a.Finish, job: job})
	}
	for _, r := range rs {
		sortSpans(mm.rows[r.ID])
	}
	mm.valid = true
}

// rescheduleDelta attempts the incremental pass. It returns the finished
// schedule on success; on any fallback it records the reason in k.delta,
// invalidates the memo (the full replan that follows re-records it) and
// returns nil.
func (k *Kernel) rescheduleDelta(rs []grid.Resource, st *State, base []dag.JobID, opts Options) *schedule.Schedule {
	mm := k.memo
	fail := func(reason string) *schedule.Schedule {
		k.delta.Reason = reason
		if mm != nil {
			mm.valid = false
		}
		return nil
	}
	switch {
	case k.dataM != nil:
		return fail("data-aware")
	case mm == nil || !mm.valid || mm.sched == nil:
		return fail("no-memo")
	case opts.TieWindow != 0:
		return fail("tie-window")
	case opts.NoInsertion:
		return fail("no-insertion")
	case st.epoch != mm.epoch:
		return fail("state-reset")
	case st.Clock < mm.clock:
		return fail("clock-rewind")
	}
	if v, ok := k.est.(VersionedEstimator); !ok || v.EstimateVersion() != mm.estVer {
		return fail("estimates-drifted")
	}
	if len(rs) != len(mm.rs) {
		return fail("resource-set-changed")
	}
	for i, r := range rs {
		if r.ID != mm.rs[i] {
			return fail("resource-set-changed")
		}
	}

	// Same estimator version and resource set means the cached rank order
	// (already refreshed by Reschedule) is identical to the memo's, so
	// mm.rankPos and the relative order of base are unchanged.

	k.prepHistory(rs, st)
	ds := &k.dsc
	ds.ensure(k.n, len(k.baseTL))

	// Divergence horizons: diff each base-timeline row against the memo's
	// copy. Finished intervals, pin drift and foreign-reservation changes
	// all materialise here — no semantic diffing needed.
	ds.dirtyRes = ds.dirtyRes[:0]
	for ri, r := range rs {
		ds.posOf[r.ID] = int32(ri)
		ds.overlay[r.ID] = ds.overlay[r.ID][:0]
		d := rowDiv(mm.baseRows[r.ID], k.baseTL[r.ID])
		ds.div[r.ID] = d
		if !math.IsInf(d, 1) {
			ds.dirtyRes = append(ds.dirtyRes, resMark{ri: int32(ri), id: r.ID})
		}
	}
	// Entries past nDiv are added by touchDiv for moved jobs; only the
	// first nDiv rows have a changed base timeline behind them.
	nDiv := len(ds.dirtyRes)

	// Input dirtiness: diff the execution-state snapshot, marking the
	// successors of every changed job (their Eq. 1 answers may differ) and
	// every job with new ledger writes on its incoming edges. The same
	// pass re-syncs the memo snapshot in place, writing only what changed.
	for j := range ds.dirtyIn {
		ds.dirtyIn[j] = false
	}
	for j := range ds.moved {
		ds.moved[j] = false
	}
	ds.changed = ds.changed[:0]
	for j := 0; j < k.n; j++ {
		changed := false
		if st.finRes[j] != mm.finRes[j] ||
			(st.finRes[j] != grid.NoResource && (st.finAST[j] != mm.finAST[j] || st.finAFT[j] != mm.finAFT[j])) {
			changed = true
			mm.finRes[j], mm.finAST[j], mm.finAFT[j] = st.finRes[j], st.finAST[j], st.finAFT[j]
		}
		if st.isPin[j] != mm.isPin[j] || (st.isPin[j] && st.pin[j] != mm.pin[j]) {
			changed = true
			mm.isPin[j], mm.pin[j] = st.isPin[j], st.pin[j]
		}
		if changed {
			ds.changed = append(ds.changed, dag.JobID(j))
			if mm.inBase[j] {
				// The job's memoized span may have to leave mm.rows.
				ds.rowTouch[mm.placed[j].Resource] = true
			}
			for _, e := range k.g.Succs(dag.JobID(j)) {
				ds.dirtyIn[e.To] = true
			}
		}
		if st.inputGen[j] != mm.inputGen[j] {
			mm.inputGen[j] = st.inputGen[j]
			ds.dirtyIn[j] = true
		}
	}

	// The sweep: walk the base jobs in rank order, reusing the memoed
	// assignment where the memo proves the full pass would reproduce it
	// and re-probing the rest.
	copy(k.placed, k.basePlaced)
	clockAdv := st.Clock > mm.clock
	frac := opts.MaxConeFrac
	if frac <= 0 {
		frac = DefaultMaxConeFrac
	}
	maxCone := int(frac * float64(len(base)))
	if maxCone < 1 {
		maxCone = 1
	}
	cone, nMoved := 0, 0
	nRS := len(rs)
	for _, job := range base {
		if !mm.inBase[job] {
			// A finished or pinned job re-entered the base set (restart
			// ablations, raw kernel use); the memo has no probe for it.
			return fail("base-grew")
		}
		inputsClean := !ds.dirtyIn[job] && !(clockAdv && (mm.case2[job] || mm.readyMin[job] < st.Clock))
		if inputsClean {
			clean := true
			for _, dr := range ds.dirtyRes {
				if mm.probeEnd[int(job)*nRS+int(dr.ri)] > ds.div[dr.id] {
					clean = false
					break
				}
			}
			if clean {
				k.placed[job] = mm.placed[job]
				continue
			}
		}
		cone++
		if cone > maxCone {
			return fail("cone-overflow")
		}
		a := k.deltaProbe(rs, st, job, mm, inputsClean)
		if a != mm.placed[job] {
			old := mm.placed[job]
			ds.moved[job] = true
			nMoved++
			ds.touchDiv(old.Resource, old.Start)
			ds.touchDiv(a.Resource, a.Start)
			ds.rowTouch[old.Resource] = true
			ds.rowTouch[a.Resource] = true
			insertSpan(&ds.overlay[a.Resource], span{start: a.Start, finish: a.Finish, job: job})
			for _, e := range k.g.Succs(job) {
				ds.dirtyIn[e.To] = true
			}
			mm.placed[job] = a
		}
		k.placed[job] = a
	}

	// Success: bring the memo forward so the next trigger deltas again.
	// Drop spans whose owner left the base set or moved, then insert the
	// moved jobs' new spans. Only rows flagged during the scan and sweep
	// can have lost a span — a newly finished/pinned owner shows up in
	// ds.changed, a re-placed one in ds.moved, and both flag their rows.
	for _, r := range rs {
		if !ds.rowTouch[r.ID] {
			continue
		}
		ds.rowTouch[r.ID] = false
		row := mm.rows[r.ID]
		w := 0
		for _, s := range row {
			o := s.job
			if ds.moved[o] || st.finRes[o] != grid.NoResource || st.isPin[o] {
				continue
			}
			row[w] = s
			w++
		}
		mm.rows[r.ID] = row[:w]
	}
	if nMoved > 0 {
		for _, job := range base {
			if ds.moved[job] {
				a := mm.placed[job]
				insertSpan(&mm.rows[a.Resource], span{start: a.Start, finish: a.Finish, job: job})
			}
		}
	}
	// Base membership only shrinks on this path (growth was rejected
	// above), and the only jobs that can leave are those whose
	// finished/pinned record changed.
	for _, j := range ds.changed {
		if st.finRes[j] != grid.NoResource || st.isPin[j] {
			mm.inBase[j] = false
		}
	}
	for _, dr := range ds.dirtyRes[:nDiv] {
		mm.baseRows[dr.id] = append(mm.baseRows[dr.id][:0], k.baseTL[dr.id]...)
	}
	mm.clock = st.Clock

	k.delta.Delta = true
	k.delta.Cone = cone
	k.delta.Moved = nMoved
	copy(k.bestPlaced, k.placed)

	// Patch the memoized schedule — history entries whose record changed,
	// then jobs the sweep re-placed — and return a clone. Every untouched
	// entry provably equals what the full pass would produce, so the patch
	// stays bit-identical while costing O(cone) updates plus one memcpy
	// instead of an O(n) rebuild. (A job that lost both its finished and
	// pinned record re-enters base and was rejected as base-grew above.)
	for _, j := range ds.changed {
		switch {
		case st.finRes[j] != grid.NoResource:
			mm.sched.Assign(schedule.Assignment{Job: j, Resource: st.finRes[j], Start: st.finAST[j], Finish: st.finAFT[j]})
		case st.isPin[j]:
			mm.sched.Assign(st.pin[j])
		}
	}
	if nMoved > 0 {
		for _, job := range base {
			if ds.moved[job] {
				mm.sched.Assign(mm.placed[job])
			}
		}
	}
	return mm.sched.Clone()
}

// deltaProbe re-runs the full pass's per-job EFT probe for one dirty job,
// reading slots from the merged span view instead of a timeline, and
// refreshes the job's memo entries as it goes.
//
// When inputsClean holds — the job is dirty only because some resource's
// timeline changed, not through its Eq. 1 inputs or the clock — every
// per-resource ready time is unchanged from the memo, so on resources
// whose visible region is intact (probeEnd ≤ divergence horizon, the same
// criterion the clean check uses) the memoized probe is still exact and is
// replayed as (probeStart, probeEnd) without walking the timeline.
// Only the perturbed resources are re-walked, and readyMin/case2 stay
// valid as recorded.
func (k *Kernel) deltaProbe(rs []grid.Resource, st *State, job dag.JobID, mm *deltaMemo, inputsClean bool) schedule.Assignment {
	preds := k.g.Preds(job)
	eBase := k.predBase[job]
	curPos := mm.rankPos[job]
	ds := &k.dsc
	nRS := len(rs)
	bestRes := grid.NoResource
	bestStart, bestFinish := 0.0, 0.0
	readyMin := 0.0
	case2 := false
	for ri, r := range rs {
		if inputsClean && mm.probeEnd[int(job)*nRS+ri] <= ds.div[r.ID] {
			finish := mm.probeEnd[int(job)*nRS+ri]
			if bestRes == grid.NoResource || finish < bestFinish {
				bestRes, bestStart, bestFinish = r.ID, mm.probeStart[int(job)*nRS+ri], finish
			}
			continue
		}
		w := k.est.Comp(job, r.ID)
		ready := st.Clock
		for i := range preds {
			if fr := st.finRes[preds[i].From]; fr != grid.NoResource {
				if _, ok := st.transfer(eBase+i, r.ID); !ok {
					case2 = true
				}
			}
			if t := st.fea(preds[i], eBase+i, r.ID); t > ready {
				ready = t
			}
		}
		start := k.mergedEarliestStart(r.ID, curPos, ready, w, st, mm)
		finish := start + w
		mm.probeStart[int(job)*nRS+ri] = start
		mm.probeEnd[int(job)*nRS+ri] = finish
		if ri == 0 || ready < readyMin {
			readyMin = ready
		}
		if bestRes == grid.NoResource || finish < bestFinish {
			bestRes, bestStart, bestFinish = r.ID, start, finish
		}
	}
	if !inputsClean {
		mm.readyMin[job] = readyMin
		mm.case2[job] = case2
	}
	return schedule.Assignment{Job: job, Resource: bestRes, Start: bestStart, Finish: bestFinish}
}

// mergedEarliestStart is the insertion-mode slot search over the merged
// view of three (start, job)-sorted rows: the fresh base timeline, the
// memo's placed spans — filtered on the fly to owners that precede the
// probing job in rank order, have not moved this sweep, and are still
// unfinished and unpinned — and the overlay of spans moved this sweep.
// Visible spans are pairwise disjoint (they are slots of one consistent
// candidate schedule), so the walk's running `prev` finish mirrors the
// dense walk exactly; starting it from the per-source predecessors of the
// first span at or past ready+w is sound because the maximum of their
// finishes is the merged predecessor's finish.
func (k *Kernel) mergedEarliestStart(rid grid.ID, curPos int32, ready, w float64, st *State, mm *deltaMemo) float64 {
	ds := &k.dsc
	a := k.baseTL[rid]
	b := mm.rows[rid]
	c := ds.overlay[rid]
	visible := func(s span) bool {
		o := s.job
		return mm.rankPos[o] < curPos && !ds.moved[o] &&
			st.finRes[o] == grid.NoResource && !st.isPin[o]
	}
	lim := ready + w
	ia := sort.Search(len(a), func(i int) bool { return a[i].start >= lim })
	ib := sort.Search(len(b), func(i int) bool { return b[i].start >= lim })
	ic := sort.Search(len(c), func(i int) bool { return c[i].start >= lim })
	prev := math.Inf(-1)
	if ia > 0 {
		prev = a[ia-1].finish
	}
	if ic > 0 && c[ic-1].finish > prev {
		prev = c[ic-1].finish
	}
	for i := ib - 1; i >= 0; i-- {
		if visible(b[i]) {
			if b[i].finish > prev {
				prev = b[i].finish
			}
			break
		}
	}
	for {
		src := 0
		var nx span
		if ia < len(a) {
			src, nx = 1, a[ia]
		}
		if ib < len(b) && (src == 0 || spanLess(b[ib], nx)) {
			src, nx = 2, b[ib]
		}
		if ic < len(c) && (src == 0 || spanLess(c[ic], nx)) {
			src, nx = 3, c[ic]
		}
		if src == 0 {
			break
		}
		// Invisible memo spans are skipped lazily — only once they become
		// the merge minimum — so a probe never walks past its resolution
		// point; skipping leaves prev untouched, so the outcome matches the
		// eager filter exactly.
		if src == 2 && !visible(nx) {
			ib++
			continue
		}
		start := prev
		if ready > start {
			start = ready
		}
		if start+w <= nx.start {
			return start
		}
		if nx.finish > prev {
			prev = nx.finish
		}
		switch src {
		case 1:
			ia++
		case 2:
			ib++
		case 3:
			ic++
		}
	}
	start := prev
	if ready > start {
		start = ready
	}
	return start
}

// spanLess is the row order: by start, then finish — a zero-cost job's
// empty interval before the job that starts where it sits, or a walk would
// take the empty one's finish for the row's — then job. Spans that occupy
// time are disjoint, so between them it is (start, job), as the comments
// call it.
func spanLess(a, b span) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.job < b.job
}

// sortSpans sorts a row by spanLess.
func sortSpans(row []span) {
	slices.SortFunc(row, func(a, b span) int {
		switch {
		case spanLess(a, b):
			return -1
		case spanLess(b, a):
			return 1
		}
		return 0
	})
}
