// Quickstart: reproduce the paper's worked example (Figs. 4–5).
//
// A ten-job workflow is planned with classic static HEFT on three
// resources (makespan 80). A fourth resource joins the grid at t = 15; the
// adaptive planner snapshots the partially executed schedule, reschedules
// the remaining jobs over the enlarged pool, and adopts the better plan —
// reaching the paper's published makespan of 76.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"aheft"
	"aheft/internal/dag"
	"aheft/internal/grid"
)

func main() {
	sc := aheft.SampleScenario()
	g, est, pool := sc.Graph, sc.Estimator(), sc.Pool

	fmt.Printf("workflow: %s — %d jobs, %d edges\n", g.Name(), g.Len(), g.NumEdges())
	fmt.Printf("grid: r1–r3 from t=0, r4 joins at t=%g\n\n", pool.ChangeTimes()[0])

	nameOf := func(j dag.JobID) string { return g.Job(j).Name }
	resName := func(r grid.ID) string {
		res, _ := pool.Resource(r)
		return res.Name
	}

	ctx := context.Background()

	// 1. Traditional static HEFT: plan once on the initial pool.
	static, err := aheft.Run(ctx, g, est, pool, aheft.WithPolicy("heft"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static HEFT makespan: %g (paper: 80)\n", static.Makespan)
	fmt.Println(static.Schedule.Gantt(80, nameOf, resName))

	// 2. AHEFT: adapt to the arrival of r4. The near-tie exploration
	// window lets the rescheduler escape one locally-attractive placement
	// and reach the paper's published 76 (strict Fig. 3 greedy finds an
	// 80 reschedule and keeps the current plan instead — see
	// TestSampleAHEFTGreedy in internal/planner).
	adaptive, err := aheft.Run(ctx, g, est, pool, aheft.WithPolicy("aheft"), aheft.WithTieWindow(0.05))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive AHEFT makespan: %g (paper: 76)\n", adaptive.Makespan)
	for _, d := range adaptive.Decisions {
		fmt.Printf("  event at t=%g: pool %d, evaluated %g -> %g, adopted=%v\n",
			d.Clock, d.PoolSize, d.OldMakespan, d.NewMakespan, d.Adopted)
	}
	fmt.Println(adaptive.Schedule.Gantt(80, nameOf, resName))

	// 3. The dynamic just-in-time baseline for contrast.
	dyn, err := aheft.MinMin(ctx, g, est, pool)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic Min-Min makespan: %g\n", dyn.Makespan)
	fmt.Printf("\nAHEFT improves %0.1f%% over static HEFT and %0.1f%% over dynamic Min-Min\n",
		100*(static.Makespan-adaptive.Makespan)/static.Makespan,
		100*(dyn.Makespan-adaptive.Makespan)/dyn.Makespan)
}
