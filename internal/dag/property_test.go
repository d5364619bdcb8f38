package dag

import (
	"fmt"
	"testing"
	"testing/quick"
)

// buildArbitrary constructs a DAG from arbitrary byte-pair data by only
// ever adding forward edges (low index → high index), which guarantees
// acyclicity; every structural invariant must then hold by construction.
// The graph is validated, so it is laid out as Decode's are.
func buildArbitrary(n int, pairs []uint16) *Graph {
	if n < 2 {
		n = 2
	}
	if n > 40 {
		n = 40
	}
	g := New("arb")
	for i := 0; i < n; i++ {
		g.AddJob(fmt.Sprintf("v%d", i), "")
	}
	for _, p := range pairs {
		a := int(p>>8) % n
		b := int(p&0xff) % n
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		_ = g.AddEdge(JobID(a), JobID(b), float64(p%97)) // dup errors ignored
	}
	return g.MustValidate()
}

// TestQuickTopoOrderConsistent: for arbitrary forward-edge graphs, the
// topological order exists, covers every job exactly once, and respects
// every edge.
func TestQuickTopoOrderConsistent(t *testing.T) {
	f := func(n uint8, pairs []uint16) bool {
		g := buildArbitrary(int(n), pairs)
		order := g.TopoOrder()
		if len(order) != g.Len() {
			return false
		}
		pos := make(map[JobID]int)
		for i, j := range order {
			if _, dup := pos[j]; dup {
				return false
			}
			pos[j] = i
		}
		for _, j := range g.Jobs() {
			for _, e := range g.Succs(j.ID) {
				if pos[e.From] >= pos[e.To] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLevelsPartition: levels partition the jobs and each job sits
// strictly below all of its successors' levels.
func TestQuickLevelsPartition(t *testing.T) {
	f := func(n uint8, pairs []uint16) bool {
		g := buildArbitrary(int(n), pairs)
		levels := g.Levels()
		seen := make(map[JobID]int)
		for li, lv := range levels {
			for _, j := range lv {
				if _, dup := seen[j]; dup {
					return false
				}
				seen[j] = li
			}
		}
		if len(seen) != g.Len() {
			return false
		}
		for _, j := range g.Jobs() {
			for _, e := range g.Succs(j.ID) {
				if seen[e.From] >= seen[e.To] {
					return false
				}
			}
		}
		// Width/parallelism consistency.
		w := g.Width()
		for _, lv := range levels {
			if len(lv) > w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickJSONRoundTrip: serialisation is lossless for arbitrary valid
// graphs.
func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(n uint8, pairs []uint16) bool {
		g := buildArbitrary(int(n), pairs)
		data, err := g.MarshalJSON()
		if err != nil {
			return false
		}
		back, err := FromJSON(data)
		if err != nil {
			return false
		}
		if back.Len() != g.Len() || back.NumEdges() != g.NumEdges() {
			return false
		}
		for _, j := range g.Jobs() {
			for _, e := range g.Succs(j.ID) {
				w, ok := back.EdgeData(e.From, e.To)
				if !ok || w != e.Data {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
