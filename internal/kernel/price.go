package kernel

import (
	"math"
	"slices"

	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/schedule"
)

// Price is the kernel's one way to price a plan: the makespan plan reaches
// from st under the kernel's estimator, occupancy and data model, keeping
// every decision it made and recomputing only the times. Finished and
// pinned jobs keep st's intervals. A pending job keeps its resource and
// its place in the plan's (Start, Finish, JobID) order there — topological
// for positive costs and topologically numbered graphs, as every generator
// numbers them — and starts at the later of its inputs (Eq. 1) and the
// job before it there, in the first gap of the foreign claims. With a data
// model, each of the plan's transfers keeps its path and its order on
// every channel, leaving with its producer's priced output; an input the
// plan does not stage is staged when its consumer is priced. As in
// placement, replicas are reused and one job's inputs do not queue behind
// each other.
//
// A plan the kernel made from st prices at its own Makespan, bit for bit,
// or, placed without insertion, at most that. Price returns +Inf when a
// pending job's resource is not in rs. It keeps a plan's pending jobs in
// order for the next call on the same plan, which must not change in
// between; steady-state pricing allocates nothing.
func (k *Kernel) Price(rs []grid.Resource, st *State, plan *schedule.Schedule) float64 {
	st = k.orEmpty(st)
	if plan == k.pendOf {
		k.pend = slices.DeleteFunc(k.pend, func(a schedule.Assignment) bool { return st.finRes[a.Job] != grid.NoResource || st.isPin[a.Job] })
	}
	if plan != k.pendOf || len(k.pend) != st.Unfinished() {
		k.pendOf, k.pend = plan, k.pend[:0]
		for a := range plan.ByJob() {
			if st.finRes[a.Job] == grid.NoResource && !st.isPin[a.Job] {
				k.pend = append(k.pend, a)
			}
		}
		slices.SortFunc(k.pend, func(a, b schedule.Assignment) int {
			switch { // plan times are never NaN: no need for cmp.Compare's care
			case a.Start < b.Start, a.Start == b.Start && a.Finish < b.Finish:
				return -1
			case a.Start > b.Start, a.Finish > b.Finish:
				return 1
			}
			return int(a.Job - b.Job)
		})
	}
	// A finished job ends by the clock, before any pending one starts.
	k.prepHistory(rs, st, true)
	copy(k.placed, k.basePlaced)
	for r := range k.rows {
		k.rows[r].floor = math.Inf(-1)
	}
	for _, r := range rs {
		k.rows[r.ID].reset(k.baseTL[r.ID])
		k.rows[r.ID].floor = 0
	}
	var xs []schedule.Transfer
	if k.dataM != nil {
		k.beginDataPass(rs)
		clear(k.chFloor)
		xs = plan.Transfers()
	}
	mk, xi := k.histMax, 0
	for _, a := range k.pend {
		j, r := a.Job, a.Resource
		if !k.inRS(r) {
			return math.Inf(1)
		}
		// The plan's transfers that depart before a starts, in channel
		// order: they may carry a's inputs, and none carries its output.
		for ; xi < len(xs) && xs[xi].Start < a.Start; xi++ {
			x := xs[xi]
			if st.finRes[x.Job] != grid.NoResource || st.isPin[x.Job] || !k.inRS(x.To) || uint(x.Input) >= uint(len(k.g.Preds(x.Job))) {
				continue
			}
			if e := k.g.Preds(x.Job)[x.Input]; e.File == x.File {
				k.priceFile(st, x.Job, e.From, k.fileOfEdge[k.predBase[x.Job]+x.Input], x.To)
			}
		}
		ready, eBase := st.Clock, k.predBase[j]
		for i, e := range k.g.Preds(j) {
			if k.dataM != nil && k.fileOfEdge[eBase+i] >= 0 {
				ready = max(ready, k.priceFile(st, j, e.From, k.fileOfEdge[eBase+i], r))
			} else {
				ready = max(ready, st.fea(e, eBase+i, r))
			}
		}
		row, w := &k.rows[r], k.est.Comp(j, r)
		start := row.earliest(max(ready, row.floor), w, true)
		k.placed[j] = schedule.Assignment{Job: j, Resource: r, Start: start, Finish: start + w}
		row.floor = start + w
		mk = max(mk, start+w)
	}
	return mk
}

// inRS reports whether r is in the resource set Price was called with.
func (k *Kernel) inRS(r grid.ID) bool {
	return int(r) < len(k.rows) && !math.IsInf(k.rows[r].floor, -1)
}

// priceFile is probeInputs' file edge for pricing: the arrival of m's
// output f on r, staged there for j if no replica is there or on its way
// (and m is priced: else its consumer stages it).
func (k *Kernel) priceFile(st *State, j, m dag.JobID, f int, r grid.ID) float64 {
	src, avail := k.output(st, m)
	if src == r || src == grid.NoResource || k.dataM.PreStaged(f, r) {
		return avail
	}
	t, ok := st.fileAt(f, r)
	if !ok {
		t, ok = k.passFile(f, r)
	}
	if !ok {
		// Behind every other job's transfer priced on the path so far, in
		// the first gap of the foreign ones.
		t = max(avail, st.Clock)
		if d := k.dataM.Duration(f, src, r); d > 0 {
			k.chIdxBuf = k.dataM.AppendChannels(src, r, k.chIdxBuf[:0])
			for _, c := range k.chIdxBuf {
				t = max(t, k.chFloor[c].after(j))
			}
			t = k.channelSlot(src, r, t, d, true) + d
			for _, c := range k.chIdxBuf {
				k.chFloor[c].add(j, t)
			}
		}
		k.setPassFile(f, r, t)
	}
	return max(avail, t)
}

// chanFloor is one channel's order for Price: the latest arrival priced
// on it, the job it staged for, and the latest of every other job's.
type chanFloor struct {
	last, other float64
	job         dag.JobID
}

// after returns when the transfers priced on the channel for jobs other
// than j arrive.
func (c *chanFloor) after(j dag.JobID) float64 {
	if c.job == j {
		return c.other
	}
	return c.last
}

func (c *chanFloor) add(j dag.JobID, t float64) {
	switch {
	case c.job == j:
		c.last = max(c.last, t)
	case t > c.last:
		c.other, c.last, c.job = c.last, t, j
	default:
		c.other = max(c.other, t)
	}
}
