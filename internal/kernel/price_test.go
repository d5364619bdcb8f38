package kernel_test

import (
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/schedule"
)

// TestPriceSerializesAndReuses hand-checks the referee on a plan that
// stages nothing itself (as a data-oblivious plan does): transfers of
// different jobs over one shared link serialize in pricing order, a
// staged replica is reused by later consumers on the same resource, and
// non-file edges keep the estimator's cost.
func TestPriceSerializesAndReuses(t *testing.T) {
	g := dag.New("price")
	j0 := g.AddJob("prep", "prep")
	j1 := g.AddJob("c1", "c")
	j2 := g.AddJob("c2", "c")
	j3 := g.AddJob("c3", "c")
	j4 := g.AddJob("c4", "c")
	g.MustFileEdge(j0, j1, 1, "db")
	g.MustFileEdge(j0, j2, 1, "db")
	g.MustFileEdge(j0, j3, 1, "x")
	g.MustEdge(j0, j4, 7)
	graph := g.MustValidate()

	pool := grid.MustPoolLinks([]grid.Arrival{
		{Time: 0, Resource: grid.Resource{ID: 0, Name: "src"}},
		{Time: 0, Resource: grid.Resource{ID: 1, Name: "dst", Link: "l"}},
	}, map[string]float64{"l": 2})
	table := cost.MustTable([][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}})
	price := func(set *data.Set, s *schedule.Schedule) float64 {
		t.Helper()
		m, err := data.NewModel(set, pool, graph, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(graph, cost.Exact(table))
		defer k.Release()
		k.SetData(m)
		return k.Price(pool.Initial(), nil, s)
	}

	s := schedule.New()
	s.Assign(schedule.Assignment{Job: j0, Resource: 0, Start: 0, Finish: 1})
	for _, j := range []dag.JobID{j1, j2, j3, j4} {
		s.Assign(schedule.Assignment{Job: j, Resource: 1, Start: 0, Finish: 1})
	}

	// Pricing order is ascending job ID. j1: db ships at t=1 for 2 → staged
	// at 3, finishes 4. j2 reuses the staged replica (ready 3) but waits
	// for the resource: 4→5. j3: x serializes on link:l behind db (3→4),
	// runs 5→6. j4's plain edge costs the estimator's 7: runs 8→9.
	set := &data.Set{Files: []data.File{{ID: "db", Size: 4}, {ID: "x", Size: 2}}}
	if mk := price(set, s); mk != 9 {
		t.Fatalf("Price = %g, want 9", mk)
	}

	// Pre-staging db on the destination removes its transfer: j1 runs at
	// its precedence floor, and x's transfer no longer queues behind db.
	// j1 1→2, j2 2→3, j3: x ships 1→2, runs 3→4; j4 8→9 still dominates.
	staged := &data.Set{Files: []data.File{{ID: "db", Size: 4, Hosts: []grid.ID{1}}, {ID: "x", Size: 2}}}
	if mk := price(staged, s); mk != 9 {
		t.Fatalf("Price pre-staged = %g, want 9", mk)
	}

	// Everything on one resource: no transfers, pure compute serialization
	// behind the precedence floor.
	mono := schedule.New()
	for i, j := range []dag.JobID{j0, j1, j2, j3, j4} {
		mono.Assign(schedule.Assignment{Job: j, Resource: 0, Start: float64(i), Finish: float64(i) + 1})
	}
	if mk := price(set, mono); mk != 5 {
		t.Fatalf("Price co-located = %g, want 5", mk)
	}
}
