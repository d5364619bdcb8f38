package dag

import (
	"math"
	"testing"
)

// diamond builds a 4-job diamond: a → b, a → c, b → d, c → d.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	a := g.AddJob("a", "opA")
	b := g.AddJob("b", "opB")
	c := g.AddJob("c", "opB")
	d := g.AddJob("d", "opD")
	g.MustEdge(a, b, 1)
	g.MustEdge(a, c, 2)
	g.MustEdge(b, d, 3)
	g.MustEdge(c, d, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddJobAssignsDenseIDs(t *testing.T) {
	g := New("x")
	for i := 0; i < 5; i++ {
		id := g.AddJob(string(rune('a'+i)), "")
		if int(id) != i {
			t.Fatalf("job %d got ID %d", i, id)
		}
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	g := New("x")
	g.AddJob("a", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	g.AddJob("a", "")
}

func TestAddEdgeErrors(t *testing.T) {
	g := New("x")
	a := g.AddJob("a", "")
	b := g.AddJob("b", "")
	cases := []struct {
		name     string
		from, to JobID
		data     float64
	}{
		{"unknown from", 99, b, 1},
		{"unknown to", a, 99, 1},
		{"self loop", a, a, 1},
		{"negative data", a, b, -1},
		{"NaN data", a, b, math.NaN()},
		{"+Inf data", a, b, math.Inf(1)},
		{"-Inf data", a, b, math.Inf(-1)},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.from, c.to, c.data); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := g.AddEdge(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b, 2); err == nil {
		t.Error("duplicate edge: expected error")
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := New("cyc")
	a := g.AddJob("a", "")
	b := g.AddJob("b", "")
	c := g.AddJob("c", "")
	g.MustEdge(a, b, 1)
	g.MustEdge(b, c, 1)
	g.MustEdge(c, a, 1)
	if err := g.Validate(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

func TestFrozenGraphRejectsMutation(t *testing.T) {
	g := diamond(t)
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Fatal("expected error adding edge to frozen graph")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic adding job to frozen graph")
		}
	}()
	g.AddJob("z", "")
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order := g.TopoOrder()
	pos := make(map[JobID]int)
	for i, j := range order {
		pos[j] = i
	}
	for _, j := range g.Jobs() {
		for _, e := range g.Succs(j.ID) {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("topo order violates edge (%d,%d)", e.From, e.To)
			}
		}
	}
}

func TestEntriesExits(t *testing.T) {
	g := diamond(t)
	if es := g.Entries(); len(es) != 1 || es[0] != 0 {
		t.Fatalf("Entries = %v, want [0]", es)
	}
	if xs := g.Exits(); len(xs) != 1 || xs[0] != 3 {
		t.Fatalf("Exits = %v, want [3]", xs)
	}
}

func TestPredsSuccs(t *testing.T) {
	g := diamond(t)
	d := g.JobByName("d")
	preds := g.Preds(d)
	if len(preds) != 2 {
		t.Fatalf("preds(d) = %v", preds)
	}
	if w, ok := g.EdgeData(g.JobByName("b"), d); !ok || w != 3 {
		t.Fatalf("EdgeData(b,d) = %g,%v want 3,true", w, ok)
	}
	if _, ok := g.EdgeData(d, 0); ok {
		t.Fatal("EdgeData on absent edge returned true")
	}
}

func TestLevelsAndWidth(t *testing.T) {
	g := diamond(t)
	lv := g.Levels()
	if len(lv) != 3 {
		t.Fatalf("levels = %d, want 3", len(lv))
	}
	if g.Width() != 2 {
		t.Fatalf("width = %d, want 2", g.Width())
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	if c.Len() != g.Len() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone shape differs")
	}
	// Mutating the clone must not affect the original.
	z := c.AddJob("z", "")
	c.MustEdge(c.JobByName("d"), z, 9)
	if g.Len() != 4 || g.NumEdges() != 4 {
		t.Fatal("mutating clone affected original")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != g.Len() || back.NumEdges() != g.NumEdges() || back.Name() != g.Name() {
		t.Fatal("round trip changed shape")
	}
	for _, j := range g.Jobs() {
		bj := back.Job(back.JobByName(j.Name))
		if bj.Op != j.Op {
			t.Fatalf("job %s op %q != %q", j.Name, bj.Op, j.Op)
		}
		for _, e := range g.Succs(j.ID) {
			w, ok := back.EdgeData(back.JobByName(j.Name), back.JobByName(g.Job(e.To).Name))
			if !ok || w != e.Data {
				t.Fatalf("edge (%s,%s) lost in round trip", j.Name, g.Job(e.To).Name)
			}
		}
	}
}

func TestFromJSONRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"name":"x","jobs":[{"name":"a"},{"name":"a"}]}`,
		`{"name":"x","jobs":[{"name":"a"}],"edges":[{"from":"a","to":"zz","data":1}]}`,
		`{"name":"x","jobs":[],"edges":[]}`,
	} {
		if _, err := FromJSON([]byte(bad)); err == nil {
			t.Errorf("FromJSON(%q): expected error", bad)
		}
	}
}

func TestJobPanicsOnInvalidID(t *testing.T) {
	g := diamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Job(99)
}

func TestJobByNameMissing(t *testing.T) {
	g := diamond(t)
	if id := g.JobByName("nope"); id != NoJob {
		t.Fatalf("JobByName(nope) = %d, want NoJob", id)
	}
}

func TestMultiExitMakespanSemantics(t *testing.T) {
	g := New("multi")
	a := g.AddJob("a", "")
	b := g.AddJob("b", "")
	c := g.AddJob("c", "")
	g.MustEdge(a, b, 1)
	g.MustEdge(a, c, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if xs := g.Exits(); len(xs) != 2 {
		t.Fatalf("exits = %v, want two", xs)
	}
}
