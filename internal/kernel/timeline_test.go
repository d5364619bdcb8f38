package kernel

// The slot search as it was before rows became timelines — a walk over
// start-sorted per-job spans — kept as the reference timeline.earliest and
// timeline.add are held to, and as the slow side of the scale test and the
// BenchmarkKernelSlotSearch oracle rows.

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
)

// refEarliestStart finds the earliest start >= ready at which a task of the
// given duration fits a row of disjoint start-sorted spans: binary search to
// the span preceding the first one that starts at or past ready+duration,
// then every later gap in turn — on a row packed back to back, all of them.
func refEarliestStart(tl []block, ready, duration float64, insertion bool) float64 {
	if len(tl) == 0 {
		return ready
	}
	if !insertion {
		if last := tl[len(tl)-1].finish; last > ready {
			return last
		}
		return ready
	}
	lim := ready + duration
	j := sort.Search(len(tl), func(i int) bool { return tl[i].start >= lim })
	if j == 0 {
		return ready
	}
	for i := j - 1; i < len(tl)-1; i++ {
		start := tl[i].finish
		if ready > start {
			start = ready
		}
		if start+duration <= tl[i+1].start {
			return start
		}
	}
	if last := tl[len(tl)-1].finish; last > ready {
		return last
	}
	return ready
}

// coalesce merges overlapping or touching spans of a start-sorted row in
// place and returns the shortened row — what a timeline's blocks must equal.
func coalesce(row []block) []block {
	w := 0
	for i := 0; i < len(row); i++ {
		if w > 0 && row[i].start <= row[w-1].finish {
			row[w-1].finish = max(row[w-1].finish, row[i].finish)
			continue
		}
		row[w] = row[i]
		w++
	}
	return row[:w]
}

// insertBlock inserts s keeping the row in sortBlocks order.
func insertBlock(row *[]block, s block) {
	i := sort.Search(len(*row), func(i int) bool {
		b := (*row)[i]
		return b.start > s.start || (b.start == s.start && b.finish > s.finish)
	})
	*row = slices.Insert(*row, i, s)
}

// randomRow draws a sorted row of disjoint spans on a half-unit grid: runs
// of spans that touch, gaps from half a unit up, here and there the empty
// span of a zero-cost job (in a gap, or where the next span starts), and —
// with foreign — reservations laid over it at random, the row then
// coalesced: the walk is defined on disjoint spans only.
func randomRow(rnd *rand.Rand, foreign bool) []block {
	var row []block
	at := float64(rnd.Intn(4))
	for i, n := 0, rnd.Intn(14); i < n; i++ {
		if rnd.Intn(3) > 0 { // else: touches the span before it
			at += float64(1+rnd.Intn(8)) / 2
		}
		if rnd.Intn(6) == 0 {
			row = append(row, block{at, at})
			if rnd.Intn(2) == 0 {
				at += float64(1+rnd.Intn(4)) / 2
			}
		}
		fin := at + float64(1+rnd.Intn(10))/2
		row = append(row, block{at, fin})
		at = fin
	}
	if foreign {
		for i, n := 0, rnd.Intn(5); i < n; i++ {
			start := float64(rnd.Intn(2*int(at)+2)) / 2
			row = append(row, block{start, start + float64(1+rnd.Intn(12))/2})
		}
		sortBlocks(row)
		row = coalesce(row)
	}
	return row
}

// TestTimelineEarliestMatchesSpanWalk: over random rows, a timeline built
// from the row — in row order, and span by span in any order — answers
// every search as the span walk over the row itself does: ready before,
// inside, at either edge of and past every span; durations zero, negative,
// tiny, ordinary and longer than any gap; insertion on and off. A positive
// duration sees the same gaps in both forms; a zero or negative one fits
// where two spans touch, which the timeline's seams keep.
func TestTimelineEarliestMatchesSpanWalk(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	durations := []float64{0, -1, 1e-9, 0.5, 1, 2.5, 1000}
	for round := 0; round < 4000; round++ {
		row := randomRow(rnd, round%2 == 1)
		var inOrder, shuffled timeline
		inOrder.reset(row)
		for _, i := range rnd.Perm(len(row)) {
			shuffled.add(row[i].start, row[i].finish)
		}
		if !slices.Equal(inOrder.blocks, shuffled.blocks) || !slices.Equal(inOrder.blocks, coalesce(slices.Clone(row))) {
			t.Fatalf("round %d: row %+v\n in order %+v\n shuffled %+v", round, row, inOrder.blocks, shuffled.blocks)
		}
		readies := []float64{0, 1e9}
		for _, s := range row {
			readies = append(readies, s.start-0.5, s.start, s.start+0.25, (s.start+s.finish)/2, s.finish, s.finish+0.25)
		}
		for _, ready := range readies {
			for _, d := range durations {
				for _, insertion := range []bool{true, false} {
					want := refEarliestStart(row, ready, d, insertion)
					if got := inOrder.earliest(ready, d, insertion); got != want {
						t.Fatalf("round %d: row %+v: earliest(%g, %g, %v) = %g, span walk %g", round, row, ready, d, insertion, got, want)
					}
					if got := shuffled.earliest(ready, d, insertion); got != want {
						t.Fatalf("round %d: row %+v added out of order: earliest(%g, %g, %v) = %g, span walk %g", round, row, ready, d, insertion, got, want)
					}
				}
			}
		}
	}
}

// TestTimelineAddMatchesInsertThenCoalesce: whatever is added — equal
// starts, touching, nested and overlapping spans are all common on this
// coarse grid — the blocks are what inserting the span into the sorted row
// and re-coalescing the whole row leaves.
func TestTimelineAddMatchesInsertThenCoalesce(t *testing.T) {
	rnd := rand.New(rand.NewSource(15))
	for round := 0; round < 2000; round++ {
		var got timeline
		var want []block
		for i, n := 0, 1+rnd.Intn(24); i < n; i++ {
			start := float64(rnd.Intn(40))
			s := block{start, start + float64(1+rnd.Intn(6))}
			got.add(s.start, s.finish)
			insertBlock(&want, s)
			want = coalesce(want)
			if !slices.Equal(got.blocks, want) {
				t.Fatalf("round %d after %+v:\n got %+v\nwant %+v", round, s, got.blocks, want)
			}
		}
	}
}

// TestPackedReplanDoesNotWalkTheRow replans 16 384 independent equal-cost
// jobs on 4 resources: every row fills back to back, no gap ever fits, and
// a search that walks the placed spans makes the pass quadratic. The same
// pass over span rows searched by refEarliestStart is timed beside the
// kernel's and must lose by more than 10× (it loses by about 90×); a ratio,
// as in TestDataPassIsLinearInFanIn, because both slow down together.
func TestPackedReplanDoesNotWalkTheRow(t *testing.T) {
	if testing.Short() {
		t.Skip("times a 16384-job replan against a quadratic reference")
	}
	const n, nRes, w = 16384, 4, 5.0
	g := dag.New("packed")
	rows := make([][]float64, n)
	for j := range rows {
		g.AddJob(strconv.Itoa(j), "work")
		rows[j] = []float64{w, w, w, w}
	}
	k := New(g.MustValidate(), cost.Exact(cost.MustTable(rows)))
	rs := make([]grid.Resource, nRes)
	for i := range rs {
		rs[i] = grid.Resource{ID: grid.ID(i)}
	}
	var makespan float64
	began := time.Now()
	for i := 0; i < 3; i++ { // the first pass also ranks and grows the scratch
		began = time.Now()
		s, err := k.Reschedule(rs, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		makespan = s.Makespan()
	}
	pass := time.Since(began)

	began = time.Now()
	tl := make([][]block, nRes)
	refMakespan := 0.0
	for j := 0; j < n; j++ {
		best, bestStart := 0, 0.0
		for r := range tl {
			if start := refEarliestStart(tl[r], 0, w, true); r == 0 || start < bestStart {
				best, bestStart = r, start
			}
		}
		insertBlock(&tl[best], block{bestStart, bestStart + w})
		refMakespan = max(refMakespan, bestStart+w)
	}
	walk := time.Since(began)
	if makespan != refMakespan || makespan != n/nRes*w {
		t.Fatalf("makespan %g, span-walk pass %g, want %g", makespan, refMakespan, n/nRes*w)
	}
	t.Logf("replan %v, span-walk placement %v (%.0f×)", pass, walk, float64(walk)/float64(pass))
	if walk < 10*pass {
		t.Errorf("replan took %v, the span-walk placement %v: less than 10× apart", pass, walk)
	}
}

// BenchmarkKernelSlotSearch times one insertion-mode search on a 4096-span
// row, as a timeline and — under oracle/ — as the span walk over the same
// row: packed back to back, where no gap fits and the walk visits every
// span after ready while the timeline is one block (CI gates the ratio of
// the two); and fragmented, unit gaps with every 64th wide enough, where
// both step through some 32 gaps and should read alike.
func BenchmarkKernelSlotSearch(b *testing.B) {
	const n = 4096
	for _, shape := range []string{"packed", "fragmented"} {
		row := make([]block, n)
		at := 0.0
		for i := range row {
			row[i] = block{at, at + 4}
			if at += 4; shape == "fragmented" {
				if at++; i%64 == 63 {
					at += 2
				}
			}
		}
		var tl timeline
		tl.reset(row)
		// Ready times spread over the first three quarters of the row.
		readies := make([]float64, 257)
		for i := range readies {
			readies[i] = float64(i) / float64(len(readies)) * 0.75 * at
		}
		run := func(name string, search func(ready float64) float64) {
			b.Run(name+shape+"/n="+strconv.Itoa(n), func(b *testing.B) {
				sum, i := 0.0, 0
				for b.Loop() {
					sum += search(readies[i%len(readies)])
					i++
				}
				if sum <= 0 {
					b.Fatal("no search moved past time zero")
				}
			})
		}
		run("", func(ready float64) float64 { return tl.earliest(ready, 2.5, true) })
		run("oracle/", func(ready float64) float64 { return refEarliestStart(row, ready, 2.5, true) })
	}
}
