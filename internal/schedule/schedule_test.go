package schedule

import (
	"strings"
	"testing"

	"aheft/internal/dag"
	"aheft/internal/grid"
)

func TestAssignAndGet(t *testing.T) {
	s := New()
	a := Assignment{Job: 1, Resource: 0, Start: 5, Finish: 10}
	s.Assign(a)
	got, ok := s.Get(1)
	if !ok || got != a {
		t.Fatalf("Get = %+v,%v want %+v", got, ok, a)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, ok := s.Get(2); ok {
		t.Fatal("Get(2) should miss")
	}
}

func TestAssignReplacesAndRetimes(t *testing.T) {
	s := New()
	s.Assign(Assignment{Job: 1, Resource: 0, Start: 0, Finish: 10})
	s.Assign(Assignment{Job: 1, Resource: 2, Start: 20, Finish: 30})
	if got := s.MustGet(1); got.Resource != 2 || got.Start != 20 {
		t.Fatalf("reassignment not applied: %+v", got)
	}
	if tl := s.Timelines()[0]; len(tl) != 0 {
		t.Fatalf("old timeline entry left behind: %v", tl)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after replace", s.Len())
	}
}

func TestRemove(t *testing.T) {
	s := New()
	s.Assign(Assignment{Job: 1, Resource: 0, Start: 0, Finish: 10})
	s.Remove(1)
	if s.Len() != 0 || len(s.Timelines()[0]) != 0 {
		t.Fatal("Remove left state behind")
	}
	s.Remove(99) // no-op
}

func TestTimelineSorted(t *testing.T) {
	s := New()
	s.Assign(Assignment{Job: 1, Resource: 0, Start: 20, Finish: 30})
	s.Assign(Assignment{Job: 2, Resource: 0, Start: 0, Finish: 10})
	s.Assign(Assignment{Job: 3, Resource: 0, Start: 10, Finish: 20})
	tl := s.Timelines()[0]
	for i := 1; i < len(tl); i++ {
		if tl[i].Start < tl[i-1].Start {
			t.Fatalf("timeline unsorted: %v", tl)
		}
	}
}

func TestMakespan(t *testing.T) {
	s := New()
	if s.Makespan() != 0 {
		t.Fatal("empty makespan should be 0")
	}
	s.Assign(Assignment{Job: 1, Resource: 0, Start: 0, Finish: 10})
	s.Assign(Assignment{Job: 2, Resource: 1, Start: 5, Finish: 42})
	if s.Makespan() != 42 {
		t.Fatalf("Makespan = %g, want 42", s.Makespan())
	}
}

func TestAssignments(t *testing.T) {
	s := New()
	s.Assign(Assignment{Job: 2, Resource: 0, Start: 5, Finish: 6})
	s.Assign(Assignment{Job: 1, Resource: 1, Start: 5, Finish: 7})
	s.Assign(Assignment{Job: 3, Resource: 0, Start: 0, Finish: 1})
	as := s.Assignments()
	if len(as) != 3 || as[0].Job != 3 || as[1].Job != 1 || as[2].Job != 2 {
		t.Fatalf("Assignments order: %+v", as)
	}
	rs := s.Resources()
	if len(rs) != 2 || rs[0] != 0 || rs[1] != 1 {
		t.Fatalf("Resources: %v", rs)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	s.Assign(Assignment{Job: 1, Resource: 0, Start: 0, Finish: 10})
	c := s.Clone()
	c.Assign(Assignment{Job: 2, Resource: 0, Start: 10, Finish: 20})
	if s.Len() != 1 {
		t.Fatal("clone mutation leaked into original")
	}
	c.Remove(1)
	if _, ok := s.Get(1); !ok {
		t.Fatal("clone removal leaked into original")
	}
}

func TestAssignPanicsOnInvalidInterval(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative-duration interval")
		}
	}()
	s.Assign(Assignment{Job: 1, Resource: 0, Start: 10, Finish: 5})
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().MustGet(1)
}

// chainGraph builds a → b with edge weight 4.
func chainGraph(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New("chain")
	a := g.AddJob("a", "")
	b := g.AddJob("b", "")
	g.MustEdge(a, b, 4)
	return g.MustValidate()
}

type fixedCost float64

func (f fixedCost) Comp(dag.JobID, grid.ID) float64 { return float64(f) }
func (f fixedCost) Comm(e dag.Edge, rFrom, rTo grid.ID) float64 {
	if rFrom == rTo {
		return 0
	}
	return e.Data
}

func TestValidateHappyPath(t *testing.T) {
	g := chainGraph(t)
	s := New()
	s.Assign(Assignment{Job: 0, Resource: 0, Start: 0, Finish: 10})
	s.Assign(Assignment{Job: 1, Resource: 1, Start: 14, Finish: 24})
	opts := ValidateOptions{Comp: fixedCost(10), Comm: fixedCost(10), Pool: grid.StaticPool(2)}
	if err := s.Validate(g, opts); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	g := chainGraph(t)
	pool := grid.StaticPool(2)

	// Missing job.
	s := New()
	s.Assign(Assignment{Job: 0, Resource: 0, Start: 0, Finish: 10})
	if err := s.Validate(g, ValidateOptions{}); err == nil {
		t.Error("missing job not caught")
	}

	// Overlap.
	s = New()
	s.Assign(Assignment{Job: 0, Resource: 0, Start: 0, Finish: 10})
	s.Assign(Assignment{Job: 1, Resource: 0, Start: 5, Finish: 15})
	if err := s.Validate(g, ValidateOptions{}); err == nil {
		t.Error("overlap not caught")
	}

	// Precedence + transfer violated (starts at 12 < 10+4).
	s = New()
	s.Assign(Assignment{Job: 0, Resource: 0, Start: 0, Finish: 10})
	s.Assign(Assignment{Job: 1, Resource: 1, Start: 12, Finish: 22})
	if err := s.Validate(g, ValidateOptions{Comm: fixedCost(10)}); err == nil {
		t.Error("precedence violation not caught")
	}

	// Wrong duration.
	s = New()
	s.Assign(Assignment{Job: 0, Resource: 0, Start: 0, Finish: 9})
	s.Assign(Assignment{Job: 1, Resource: 0, Start: 9, Finish: 19})
	if err := s.Validate(g, ValidateOptions{Comp: fixedCost(10)}); err == nil {
		t.Error("duration mismatch not caught")
	}

	// Starts before resource joins.
	late := grid.MustPool([]grid.Arrival{
		{Time: 0, Resource: grid.Resource{ID: 0}},
		{Time: 100, Resource: grid.Resource{ID: 1}},
	})
	s = New()
	s.Assign(Assignment{Job: 0, Resource: 0, Start: 0, Finish: 10})
	s.Assign(Assignment{Job: 1, Resource: 1, Start: 14, Finish: 24})
	if err := s.Validate(g, ValidateOptions{Pool: late}); err == nil {
		t.Error("pre-arrival start not caught")
	}
	_ = pool
}

func TestGantt(t *testing.T) {
	s := New()
	s.Assign(Assignment{Job: 0, Resource: 0, Start: 0, Finish: 50})
	s.Assign(Assignment{Job: 1, Resource: 1, Start: 50, Finish: 100})
	out := s.Gantt(40, nil, nil)
	if !strings.Contains(out, "r1") || !strings.Contains(out, "r2") {
		t.Fatalf("Gantt missing resource rows:\n%s", out)
	}
	if !strings.Contains(out, "n1") {
		t.Fatalf("Gantt missing job label:\n%s", out)
	}
	if New().Gantt(40, nil, nil) != "(empty schedule)\n" {
		t.Fatal("empty Gantt wrong")
	}
}

func TestString(t *testing.T) {
	s := New()
	s.Assign(Assignment{Job: 0, Resource: 0, Start: 0, Finish: 10})
	if !strings.Contains(s.String(), "makespan 10.000") {
		t.Fatalf("String output: %s", s)
	}
}

func TestDuration(t *testing.T) {
	a := Assignment{Start: 3, Finish: 10}
	if a.Duration() != 7 {
		t.Fatalf("Duration = %g", a.Duration())
	}
}
