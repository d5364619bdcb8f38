package aheft_test

import (
	"context"
	"math"
	"testing"

	"aheft"
	"aheft/internal/cost"
	"aheft/internal/data"
	"aheft/internal/kernel"
	"aheft/internal/workload"
)

// TestDataAwareBeatsOblivious is the library-level acceptance gate for
// data-aware scheduling: on the data-heavy two-site scenario (shared
// database pre-staged on the slow site, fast remote site behind
// bandwidth-4 links as the bait), a plan made with the file catalog
// bound must beat the plan made on the raw edge weights — with both
// schedules scored by kernel.Price on a kernel bound to the exact costs
// and the data model, the referee that replays placements under the true
// data semantics, so neither plan grades its own homework.
func TestDataAwareBeatsOblivious(t *testing.T) {
	ctx := context.Background()
	sc := aheft.DataScenario()
	est := sc.Estimator()

	oblivious, err := aheft.Run(ctx, sc.Graph, est, sc.Pool)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := aheft.Run(ctx, sc.Graph, est, sc.Pool, aheft.WithFileReuse(sc.Files))
	if err != nil {
		t.Fatal(err)
	}

	m, err := data.NewModel(sc.Files, sc.Pool, sc.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := kernel.New(sc.Graph, cost.Exact(sc.Table))
	ref.SetData(m)
	all := sc.Pool.AvailableAt(math.Inf(1))
	obliviousTrue := ref.Price(all, nil, oblivious.Schedule)
	awareTrue := ref.Price(all, nil, aware.Schedule)
	if awareTrue >= obliviousTrue {
		t.Fatalf("data-aware %.2f does not beat oblivious %.2f under the true data semantics",
			awareTrue, obliviousTrue)
	}

	// The bait must actually have been taken for the comparison to mean
	// anything: the oblivious plan's promised makespan understates its
	// price (it never modelled the serialized database transfers).
	if obliviousTrue <= oblivious.Makespan {
		t.Fatalf("oblivious plan paid no hidden transfer cost: promised %.2f, priced %.2f",
			oblivious.Makespan, obliviousTrue)
	}
	// The aware plan optimised against the model directly, so its promise
	// is honest: pricing it must not reveal extra cost.
	if awareTrue > aware.Makespan+1e-9 {
		t.Fatalf("aware plan promised %.2f but prices at %.2f", aware.Makespan, awareTrue)
	}
}

// TestDataAwareLinksOption: WithLinks overrides the pool's named
// shared-link bandwidths for the run, and the override reaches the data
// model's derived costs.
func TestDataAwareLinksOption(t *testing.T) {
	ctx := context.Background()
	sc := workload.DataScenario(workload.DataParams{})

	slow, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool,
		aheft.WithFileReuse(sc.Files))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool,
		aheft.WithFileReuse(sc.Files),
		aheft.WithLinks(map[string]float64{"siteA": 1000, "siteB": 1000}))
	if err != nil {
		t.Fatal(err)
	}
	// At bandwidth 4, shipping the database to the fast site is the trap
	// the planner avoids; at bandwidth 1000 the transfers are nearly free
	// and the fast site's 2.5× compute advantage must win.
	if fast.Makespan >= slow.Makespan {
		t.Fatalf("link override did not reach the model: fast-link %.2f >= slow-link %.2f",
			fast.Makespan, slow.Makespan)
	}
}
