package dag

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// hubDoc writes a graph document of n jobs j0..j(n-1) and the edges the
// callback lists as (from, to) index pairs.
func hubDoc(n int, edges func(add func(from, to int))) []byte {
	var b bytes.Buffer
	b.WriteString(`{"name":"hub","jobs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"j%d"}`, i)
	}
	b.WriteString(`],"edges":[`)
	first := true
	edges(func(from, to int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `{"from":"j%d","to":"j%d","data":1}`, from, to)
	})
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestDecodeHubsInLinearTime: one job with k edges used to cost k²/2
// comparisons on decode (AddFileEdge's duplicate scan), and k jobs
// released in descending ID order k²/2 moves in TopoOrder's ready list —
// 12 s of CPU for a 100 000-job star that is within the submission
// limits. Each shape must decode in well under a second.
func TestDecodeHubsInLinearTime(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes 100 000-job graphs")
	}
	const n = 100_000
	shapes := []struct {
		name  string
		edges func(add func(from, to int))
	}{
		{"star", func(add func(from, to int)) {
			for i := n - 1; i >= 1; i-- { // listed in descending order of To
				add(0, i)
			}
		}},
		{"reverse star", func(add func(from, to int)) {
			for i := 1; i < n; i++ {
				add(i, 0)
			}
		}},
		// Job i releases job n-1-i: the ready list grows from the front.
		{"descending release", func(add func(from, to int)) {
			for i := 0; i < n/2; i++ {
				add(i, n-1-i)
			}
		}},
	}
	for _, sh := range shapes {
		doc := hubDoc(n, sh.edges)
		start := time.Now()
		g, err := FromJSON(doc)
		took := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if g.Len() != n {
			t.Fatalf("%s: %d jobs", sh.name, g.Len())
		}
		t.Logf("%s: %d jobs, %d edges, %.1f MB decoded in %v", sh.name, n, g.NumEdges(), float64(len(doc))/1e6, took)
		// Linear work here is ≈ 0.1 s; the quadratic paths took 3–12 s.
		if took > 2*time.Second {
			t.Fatalf("%s: decode took %v", sh.name, took)
		}
	}
}

// TestDecodeRejectsDuplicateEdgeOnHub: the decode path finds duplicates
// without AddFileEdge's scan, and reports them in AddFileEdge's words.
func TestDecodeRejectsDuplicateEdgeOnHub(t *testing.T) {
	const n = 50_000
	doc := hubDoc(n, func(add func(from, to int)) {
		for i := 1; i < n; i++ {
			add(0, i)
		}
		add(0, n/2)
	})
	_, err := FromJSON(doc)
	want := fmt.Sprintf("dag: duplicate edge (j0,j%d)", n/2)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("duplicate edge on a %d-edge hub: got %v, want %q", n-1, err, want)
	}
	g := New("hand-built")
	a, b := g.AddJob("j0", ""), g.AddJob("j1", "")
	g.MustEdge(a, b, 1)
	if err := g.AddEdge(a, b, 1); err == nil || err.Error() != "dag: duplicate edge (j0,j1)" {
		t.Fatalf("AddEdge duplicate: %v", err)
	}
}
