package kernel

import (
	"cmp"
	"slices"
	"sort"
)

// block is one busy interval: a merged stretch of a timeline, or one
// history, pin or foreign interval of the base row it is reset from.
type block struct{ start, finish float64 }

// timeline is one capacity row — a compute resource or a transfer channel —
// as the slot search sees it: start-sorted busy blocks that neither overlap
// nor touch. History, pins, foreign reservations and the pass's placements
// all merge into the same blocks, so a row packed back to back is a single
// block and a search over it has nothing to walk.
//
// seams are the instants where two added intervals met inside a block. Only
// a task of zero or negative duration can tell one from busy time — it fits
// the zero-length gap — and they keep that search answering as it would
// over the unmerged intervals.
type timeline struct {
	blocks []block
	seams  []float64 // ascending

	// floor is Price's resource order: the previous priced job's finish,
	// -Inf on a row outside the priced resource set.
	floor float64
}

// reset empties the timeline and adds every interval of from, which must
// be in sortBlocks order: where seams fall depends on the order of adds.
func (t *timeline) reset(from []block) {
	t.blocks, t.seams = t.blocks[:0], t.seams[:0]
	for _, s := range from {
		t.add(s.start, s.finish)
	}
}

// sortBlocks sorts a base row by start, then finish — a zero-cost job's
// empty interval before the job that starts where it sits.
func sortBlocks(row []block) {
	slices.SortFunc(row, func(a, b block) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.finish, b.finish)
	})
}

// add marks [start, finish) busy, merging it with every block it overlaps
// or touches: only the blocks around its position change.
func (t *timeline) add(start, finish float64) {
	b := t.blocks
	lo := sort.Search(len(b), func(i int) bool { return b[i].finish >= start })
	hi := lo
	for hi < len(b) && b[hi].start <= finish {
		hi++
	}
	if lo == hi {
		if cap(b) == 0 {
			b = make([]block, 0, 4) // a short row's worth, not 1, 2, 4
		}
		t.blocks = slices.Insert(b, lo, block{start, finish})
		return
	}
	if b[lo].finish == start {
		t.addSeam(start)
	}
	if b[hi-1].start == finish {
		t.addSeam(finish)
	}
	b[lo] = block{min(b[lo].start, start), max(b[hi-1].finish, finish)}
	t.blocks = slices.Delete(b, lo+1, hi)
}

func (t *timeline) addSeam(at float64) {
	if cap(t.seams) == 0 {
		t.seams = make([]float64, 0, 16)
	}
	t.seams = slices.Insert(t.seams, sort.SearchFloat64s(t.seams, at), at)
}

// earliest finds the earliest start >= ready at which a task of duration d
// fits. With insertion it is HEFT's insertion-based policy: a gap ending
// before ready+d cannot hold the task, so the walk begins at the block
// preceding the first one that starts at or past ready+d (binary search)
// and steps block by block. Without insertion the task goes after the last.
func (t *timeline) earliest(ready, d float64, insertion bool) float64 {
	b := t.blocks
	if len(b) == 0 {
		return ready
	}
	busyTo := b[len(b)-1].finish
	if insertion {
		lim := ready + d
		j := sort.Search(len(b), func(i int) bool { return b[i].start >= lim })
		if j == 0 {
			return ready // fits before the first block
		}
		if d <= 0 {
			// Fits a gap of no length: the first seam at or past lim inside
			// the block lim falls in, else that block's end.
			at := b[j-1].finish
			if i := sort.SearchFloat64s(t.seams, lim); i < len(t.seams) && t.seams[i] < at {
				at = t.seams[i]
			}
			return max(at, ready)
		}
		busyTo = b[j-1].finish
		for _, next := range b[j:] {
			start := busyTo
			if ready > start {
				start = ready
			}
			if start+d <= next.start {
				return start
			}
			busyTo = next.finish
		}
	}
	return max(busyTo, ready)
}
