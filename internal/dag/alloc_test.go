//go:build !race

package dag_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"aheft/internal/dag"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

// TestFromJSONAllocBudget pins what decoding a 60-job graph document
// allocates: the graph itself (jobs, the one string of names, the name
// index, the edges, their offsets and the topological order) and the
// scanner — 11 objects and 23.7 KB. It was 159 objects when the edge
// scratch was a fresh array per call and endpoints were resolved into a
// third edge copy, and 148 objects and 43.9 KB while every edge was held
// twice and every name was its own string. The budgets leave about 10 %
// of slack. The collector is off so the scratch pool keeps its entry
// between runs; the race detector drops pool entries at random, hence the
// build tag.
func TestFromJSONAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, err := workload.RandomDAG(workload.RandomParams{Jobs: 60, CCR: 2, OutDegree: 0.3, Beta: 0.5}, rng.New(0xD0E))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := dag.FromJSON(doc); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, decode); n > 12 {
		t.Errorf("FromJSON: %v allocs per run, budget 12", n)
	}
	if n := bytesPerRun(50, decode); n > 26_000 {
		t.Errorf("FromJSON: %d bytes per run, budget 26 000", n)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: what one call of f
// allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
