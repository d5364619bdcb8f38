package cost

import (
	"math"
	"testing"

	"aheft/internal/dag"
	"aheft/internal/grid"
)

func table(t *testing.T) *Table {
	t.Helper()
	return MustTable([][]float64{
		{10, 20},
		{30, 40},
	})
}

func TestNewTableValidation(t *testing.T) {
	cases := []struct {
		name string
		comp [][]float64
	}{
		{"empty", nil},
		{"zero resources", [][]float64{{}}},
		{"ragged", [][]float64{{1, 2}, {1}}},
		{"zero cost", [][]float64{{0}}},
		{"negative", [][]float64{{-1}}},
		{"inf", [][]float64{{math.Inf(1)}}},
		{"nan", [][]float64{{math.NaN()}}},
	}
	for _, c := range cases {
		if _, err := NewTable(c.comp); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestTableAccessors(t *testing.T) {
	tb := table(t)
	if tb.Jobs() != 2 || tb.Resources() != 2 {
		t.Fatalf("shape = %dx%d", tb.Jobs(), tb.Resources())
	}
	if tb.Comp(1, 0) != 30 {
		t.Fatalf("Comp(1,0) = %g", tb.Comp(1, 0))
	}
}

func TestCommZeroWhenColocated(t *testing.T) {
	tb := table(t)
	e := dag.Edge{From: 0, To: 1, Data: 7}
	for _, comm := range []func(dag.Edge, grid.ID, grid.ID) float64{Comm, tb.Comm} {
		if c := comm(e, 0, 0); c != 0 {
			t.Fatalf("co-located Comm = %g, want 0", c)
		}
		if c := comm(e, 0, 1); c != 7 {
			t.Fatalf("cross Comm = %g, want 7", c)
		}
	}
}

func TestMeanComp(t *testing.T) {
	tb := table(t)
	rs := []grid.Resource{{ID: 0}, {ID: 1}}
	if m := MeanComp(tb, 0, rs); m != 15 {
		t.Fatalf("MeanComp = %g, want 15", m)
	}
	if m := MeanComp(tb, 0, rs[:1]); m != 10 {
		t.Fatalf("MeanComp over r0 = %g, want 10", m)
	}
}

func TestMeanCompPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MeanComp(table(t), 0, nil)
}

func TestCCR(t *testing.T) {
	g := dag.New("x")
	a := g.AddJob("a", "")
	b := g.AddJob("b", "")
	g.MustEdge(a, b, 40)
	g.MustValidate()
	tb := MustTable([][]float64{{10, 30}, {10, 30}}) // mean comp 20
	rs := []grid.Resource{{ID: 0}, {ID: 1}}
	if c := CCR(g, tb, rs); c != 2 {
		t.Fatalf("CCR = %g, want 2 (mean comm 40 / mean comp 20)", c)
	}
}

func TestCCRNoEdges(t *testing.T) {
	g := dag.New("x")
	g.AddJob("a", "")
	g.MustValidate()
	tb := MustTable([][]float64{{5}})
	if c := CCR(g, tb, []grid.Resource{{ID: 0}}); c != 0 {
		t.Fatalf("CCR of edgeless DAG = %g, want 0", c)
	}
}

func TestExactIsIdentity(t *testing.T) {
	tb := table(t)
	est := Exact(tb)
	if est.Comp(0, 1) != tb.Comp(0, 1) {
		t.Fatal("Exact estimator diverges from table")
	}
}
