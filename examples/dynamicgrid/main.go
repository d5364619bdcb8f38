// Dynamic grid: three strategies under resource churn.
//
// This example runs a batch of parametric random workflows (the paper's
// §4.2 setting) on grids whose pools grow over time, comparing:
//
//   - static HEFT (plan once, ignore the dynamics),
//   - AHEFT (the paper's adaptive rescheduling),
//   - dynamic Min-Min (just-in-time local decisions).
//
// It prints per-case makespans and the aggregate ordering the paper
// reports: AHEFT ≤ HEFT ≪ Min-Min, with Min-Min's gap widening as the
// workload gets more data-intensive (higher CCR).
//
//	go run ./examples/dynamicgrid [-cases 10] [-ccr 5]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"aheft"
	"aheft/internal/rng"
	"aheft/internal/stats"
	"aheft/internal/workload"
)

func main() {
	var (
		cases = flag.Int("cases", 10, "number of random workflows")
		jobs  = flag.Int("jobs", 100, "jobs per workflow")
		ccr   = flag.Float64("ccr", 0.5, "communication-to-computation ratio; at high CCR transfer costs lock jobs in place and adaptive gains shrink")
		pool  = flag.Int("pool", 10, "initial pool size R")
		seed  = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	root := rng.New(*seed)
	var hs, as, ms stats.Sample
	fmt.Printf("%-6s %12s %12s %12s %10s\n", "case", "HEFT", "AHEFT", "Min-Min", "AHEFT gain")
	for i := 0; i < *cases; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		sc, err := workload.RandomScenario(workload.RandomParams{
			Jobs:      *jobs,
			CCR:       *ccr,
			OutDegree: 0.3,
			Beta:      0.5,
			Alpha:     2, // wide DAGs so arrivals matter
		}, workload.GridParams{
			InitialResources: *pool,
			ChangeInterval:   300,
			ChangePct:        0.25,
		}, r)
		if err != nil {
			log.Fatal(err)
		}
		// Each policy is an independent Run over the same immutable pool.
		results := map[string]*aheft.Result{}
		for _, pol := range []string{"heft", "aheft", "minmin"} {
			res, err := aheft.Run(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, aheft.WithPolicy(pol))
			if err != nil {
				log.Fatal(err)
			}
			results[pol] = res
		}
		static, adaptive, dyn := results["heft"], results["aheft"], results["minmin"]
		hs.Add(static.Makespan)
		as.Add(adaptive.Makespan)
		ms.Add(dyn.Makespan)
		fmt.Printf("%-6d %12.1f %12.1f %12.1f %9.1f%%\n",
			i, static.Makespan, adaptive.Makespan, dyn.Makespan, 100*adaptive.Improvement())
	}
	fmt.Printf("\naverages over %d cases (paper §4.2: HEFT 4075, AHEFT 3911, Min-Min 12352):\n", *cases)
	fmt.Printf("  HEFT    %s\n  AHEFT   %s\n  Min-Min %s\n", hs.String(), as.String(), ms.String())
	fmt.Printf("\nAHEFT vs HEFT:    %5.1f%% better on average\n", 100*stats.Improvement(hs.Mean(), as.Mean()))
	fmt.Printf("AHEFT vs Min-Min: %5.1f%% better on average\n", 100*stats.Improvement(ms.Mean(), as.Mean()))
}
