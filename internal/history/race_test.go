package history

import (
	"fmt"
	"sync"
	"testing"

	"aheft/internal/grid"
)

// TestConcurrentRecordAndEstimate hammers one repository from writer and
// reader goroutines the way the daemon does: shard workers Record
// measured runtimes and judge Variance (and recovery Imports cells) while
// history-based predictors read Generation and Lookup/LookupOp
// mid-reschedule and metrics readers poll Len/Totals. Run under -race
// this pins the thread-safety contract; the final state must also
// reconcile exactly with what the writers put in, and every operation's
// maintained aggregate with a fresh scan of its cells.
func TestConcurrentRecordAndEstimate(t *testing.T) {
	const (
		writers = 8
		readers = 8
		perGor  = 400
	)
	h := New(0)
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			op := fmt.Sprintf("op%d", w%4) // ops collide across writers
			r := grid.ID(w % 3)            // resources too
			for i := 0; i < perGor; i++ {
				d := float64(1 + (w+i)%17)
				// Variance against a concurrently mutating history may see
				// any interleaving; only crashes and races are bugs.
				h.Variance(op, r, d)
				if err := h.Record(op, r, d); err != nil {
					t.Errorf("record: %v", err)
					return
				}
			}
		}(w)
	}
	// An importer re-installs the same five cells over and over: every
	// Import replaces cells an aggregate points at while readers walk it.
	imported := make([]Cell, 5)
	for r := range imported {
		imported[r] = Cell{Op: "op0", Resource: grid.ID(10 + r), Count: 3, Mean: 4, EWMA: 4, Min: 2, Max: 6, Last: 4}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perGor; i++ {
			h.Import(imported)
		}
	}()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := fmt.Sprintf("op%d", i%4)
			gen := uint64(0)
			for n := 0; n < perGor; n++ {
				g := h.Generation()
				if g < gen {
					t.Errorf("generation went back: %d after %d", g, gen)
					return
				}
				gen = g
				if s, ok := h.Lookup(op, grid.ID(i%3)); ok {
					if s.Min <= 0 || s.Max < s.Min || s.Count <= 0 {
						t.Errorf("torn stats read: %+v", s)
						return
					}
				}
				if mean, cnt := h.LookupOp(op); cnt > 0 && mean <= 0 {
					t.Errorf("torn aggregate read: mean=%g n=%d", mean, cnt)
					return
				}
				h.Len()
				h.Totals()
				h.Keys()
			}
		}(i)
	}
	wg.Wait()

	cells, obs := h.Totals()
	if want := writers*perGor + 3*len(imported); obs != want {
		t.Fatalf("recorded %d observations, want %d", obs, want)
	}
	if cells <= len(imported) || cells > 12+len(imported) {
		t.Fatalf("unexpected cell count %d", cells)
	}
	if got, want := h.Generation(), uint64(writers*perGor+perGor); got != want {
		t.Fatalf("generation %d after %d mutations", got, want)
	}
	requireAggregatesMatchScan(t, h)
	for _, k := range h.Keys() {
		s, ok := h.Lookup(k.Op, k.Resource)
		if !ok || s.Mean < s.Min || s.Mean > s.Max || s.EWMA <= 0 {
			t.Fatalf("inconsistent final stats for %+v: %+v", k, s)
		}
	}
}
