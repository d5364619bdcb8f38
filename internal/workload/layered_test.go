package workload

import (
	"testing"

	"aheft/internal/rng"
)

func TestLayeredDAGShape(t *testing.T) {
	r := rng.New(42)
	g, err := LayeredDAG(LayeredParams{Jobs: 500, Width: 25, FanIn: 3, CCR: 1, Beta: 0.5}, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 500 {
		t.Fatalf("jobs = %d, want 500", g.Len())
	}
	levels := g.Levels()
	if len(levels) != 20 {
		t.Fatalf("levels = %d, want 500/25 = 20", len(levels))
	}
	for _, lv := range levels {
		if len(lv) > 25 {
			t.Fatalf("level width %d exceeds 25", len(lv))
		}
	}
	if w := g.Width(); w != 25 {
		t.Fatalf("width = %d, want 25", w)
	}
	// Fan-in bound: every non-entry job has between 1 and FanIn parents.
	for _, j := range g.Jobs() {
		if n := len(g.Preds(j.ID)); n > 3 {
			t.Fatalf("job %d has %d parents, fan-in bound is 3", j.ID, n)
		}
	}
	if len(g.TopoOrder()) != g.Len() {
		t.Fatal("not a validated DAG")
	}
}

func TestLayeredDAGDefaults(t *testing.T) {
	r := rng.New(7)
	g, err := LayeredDAG(LayeredParams{Jobs: 100}, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 100 {
		t.Fatalf("jobs = %d, want 100", g.Len())
	}
	// Width defaults to round(sqrt(100)) = 10.
	if len(g.Levels()) != 10 {
		t.Fatalf("levels = %d, want 10", len(g.Levels()))
	}
}

func TestLayeredDAGErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := LayeredDAG(LayeredParams{Jobs: 1}, r); err == nil {
		t.Fatal("want error for Jobs < 2")
	}
	if _, err := LayeredDAG(LayeredParams{Jobs: 10, Beta: 3}, r); err == nil {
		t.Fatal("want error for Beta > 2")
	}
}

func TestLayeredScenarioLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-job generation in -short mode")
	}
	r := rng.New(0x1A7E)
	sc, err := LayeredScenario(LayeredParams{Jobs: 20000, Width: 400, FanIn: 3, CCR: 1, Beta: 0.5},
		GridParams{InitialResources: 16, ChangeInterval: 500, ChangePct: 0.25, MaxEvents: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Graph.Len() != 20000 {
		t.Fatalf("jobs = %d", sc.Graph.Len())
	}
	if sc.Pool.Size() != 16+4*4 {
		t.Fatalf("pool size = %d, want 32", sc.Pool.Size())
	}
	if sc.Table.Jobs() != 20000 || sc.Table.Resources() != sc.Pool.Size() {
		t.Fatalf("table %dx%d does not cover scenario", sc.Table.Jobs(), sc.Table.Resources())
	}
}
