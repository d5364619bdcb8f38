//go:build !race

package dag_test

import (
	"runtime/debug"
	"testing"

	"aheft/internal/dag"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

// TestFromJSONAllocBudget pins what decoding a 60-job graph document
// allocates: the graph itself (jobs, names, name index, two adjacency
// arrays) and the scanner. It was 159 when the edge scratch was a fresh
// array per call and endpoints were resolved into a third edge copy. The
// collector is off so the scratch pool keeps its entry between runs; the
// race detector drops pool entries at random, hence the build tag.
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
	n := testing.AllocsPerRun(50, func() {
		if _, err := dag.FromJSON(doc); err != nil {
			t.Fatal(err)
		}
	})
	if n > 148 {
		t.Errorf("FromJSON: %v allocs per run, budget 148", n)
	}
}
