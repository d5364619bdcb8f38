package history

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"aheft/internal/grid"
)

func TestRecordAndLookup(t *testing.T) {
	h := New(0)
	if err := h.Record("blast", 0, 10); err != nil {
		t.Fatal(err)
	}
	s, ok := h.Lookup("blast", 0)
	if !ok {
		t.Fatal("lookup miss")
	}
	if s.Count != 1 || s.Mean != 10 || s.EWMA != 10 || s.Min != 10 || s.Max != 10 || s.Last != 10 {
		t.Fatalf("first record stats wrong: %+v", s)
	}
	if _, ok := h.Lookup("blast", 1); ok {
		t.Fatal("lookup on wrong resource hit")
	}
	if _, ok := h.Lookup("parse", 0); ok {
		t.Fatal("lookup on wrong op hit")
	}
}

func TestStreamingStats(t *testing.T) {
	h := New(0.5)
	for _, d := range []float64{10, 20, 30} {
		if err := h.Record("op", 1, d); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := h.Lookup("op", 1)
	if s.Count != 3 || s.Mean != 20 || s.Min != 10 || s.Max != 30 || s.Last != 30 {
		t.Fatalf("stats = %+v", s)
	}
	// EWMA with α=0.5: 10 → 15 → 22.5.
	if s.EWMA != 22.5 {
		t.Fatalf("EWMA = %g, want 22.5", s.EWMA)
	}
}

func TestRecordRejectsNonPositive(t *testing.T) {
	h := New(0)
	if err := h.Record("op", 0, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
	if err := h.Record("op", 0, -5); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestLookupOpAggregates(t *testing.T) {
	h := New(0)
	_ = h.Record("op", 0, 10)
	_ = h.Record("op", 0, 20)
	_ = h.Record("op", 1, 40)
	mean, n := h.LookupOp("op")
	if n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	// Weighted: (15·2 + 40·1)/3 = 70/3.
	if math.Abs(mean-70.0/3.0) > 1e-12 {
		t.Fatalf("mean = %g, want %g", mean, 70.0/3.0)
	}
	if _, n := h.LookupOp("absent"); n != 0 {
		t.Fatal("absent op should count 0")
	}
}

// scanLookupOp is LookupOp as it was before the repository kept
// per-operation aggregates: scan every cell, sort the operation's by
// resource, sum in that order.
func scanLookupOp(h *Repository, op string) (mean float64, count int) {
	sum := 0.0
	for _, k := range h.Keys() { // (op, then resource) order
		if k.Op != op {
			continue
		}
		s, _ := h.Lookup(k.Op, k.Resource)
		sum += s.Mean * float64(s.Count)
		count += s.Count
	}
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count), count
}

func requireAggregatesMatchScan(t *testing.T, h *Repository) {
	t.Helper()
	ops := map[string]bool{"never-recorded": true}
	for _, k := range h.Keys() {
		ops[k.Op] = true
	}
	for op := range ops {
		gotMean, gotN := h.LookupOp(op)
		wantMean, wantN := scanLookupOp(h, op)
		if gotN != wantN || math.Float64bits(gotMean) != math.Float64bits(wantMean) {
			t.Fatalf("LookupOp(%q) = (%v, %d), a scan of the cells gives (%v, %d)", op, gotMean, gotN, wantMean, wantN)
		}
	}
}

// TestLookupOpMatchesScan: over random interleavings of Record and Import
// (new cells, overwritten cells, ignored empty ones) the maintained
// aggregate equals the scan-and-sort answer to the bit after every step —
// the summation order is part of the contract, since replay compares
// estimates bit for bit.
func TestLookupOpMatchesScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(15))
	ops := []string{"search", "merge", "prep", "x"}
	for round := 0; round < 50; round++ {
		h := New(0)
		for step := 0; step < 60; step++ {
			if rnd.Intn(5) > 0 {
				_ = h.Record(ops[rnd.Intn(len(ops))], grid.ID(rnd.Intn(12)), 0.1+100*rnd.Float64())
			} else {
				cells := make([]Cell, rnd.Intn(4))
				for i := range cells {
					m := 0.1 + 50*rnd.Float64()
					cells[i] = Cell{
						Op: ops[rnd.Intn(len(ops))], Resource: grid.ID(rnd.Intn(12)),
						Count: rnd.Intn(4), Mean: m, EWMA: m, Min: m, Max: m, Last: m, // Count 0: ignored
					}
				}
				h.Import(cells)
			}
			requireAggregatesMatchScan(t, h)
		}
	}
}

func TestVariance(t *testing.T) {
	h := New(0)
	if _, ok := h.Variance("op", 0, 10); ok {
		t.Fatal("variance without history should report false")
	}
	_ = h.Record("op", 0, 10)
	v, ok := h.Variance("op", 0, 13)
	if !ok || math.Abs(v-0.3) > 1e-12 {
		t.Fatalf("variance = %g,%v want 0.3", v, ok)
	}
	v, _ = h.Variance("op", 0, 7)
	if math.Abs(v-0.3) > 1e-12 {
		t.Fatalf("negative deviation should be absolute: %g", v)
	}
}

func TestKeysDeterministic(t *testing.T) {
	h := New(0)
	_ = h.Record("b", 1, 1)
	_ = h.Record("a", 2, 1)
	_ = h.Record("a", 0, 1)
	ks := h.Keys()
	if len(ks) != 3 || h.Len() != 3 {
		t.Fatalf("keys = %v", ks)
	}
	want := []Key{{"a", 0}, {"a", 2}, {"b", 1}}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("keys order = %v, want %v", ks, want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	h := New(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				op := fmt.Sprintf("op%d", i%5)
				_ = h.Record(op, 0, float64(1+i%7))
				h.Lookup(op, 0)
				h.Variance(op, 0, 3)
				h.LookupOp(op)
			}
		}(w)
	}
	wg.Wait()
	s, ok := h.Lookup("op0", 0)
	if !ok || s.Count != 8*40 {
		t.Fatalf("concurrent counts wrong: %+v", s)
	}
}

func TestDefaultAlphaClamp(t *testing.T) {
	for _, bad := range []float64{-1, 0, 1.5} {
		h := New(bad)
		_ = h.Record("op", 0, 10)
		_ = h.Record("op", 0, 20)
		s, _ := h.Lookup("op", 0)
		want := DefaultAlpha*20 + (1-DefaultAlpha)*10
		if math.Abs(s.EWMA-want) > 1e-12 {
			t.Fatalf("alpha %g not clamped to default: EWMA %g", bad, s.EWMA)
		}
	}
}
