// What-if: proactive capacity planning through the Planner.
//
// The paper (§3.3) proposes extending schedule evaluation into an online
// management tool that answers "What will the expected performance be if
// an additional resource A is added (removed)?" before committing
// anything. This example executes a BLAST workflow to its one-third point,
// then asks a ladder of such questions: +1, +2, +4, +8 resources, and the
// removal of the busiest resource — printing the predicted makespan and
// whether the adaptive planner would switch plans.
//
//	go run ./examples/whatif
package main

import (
	"fmt"
	"log"

	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

func main() {
	r := rng.New(7)
	// Generate with one far-future arrival wave so hypothetical additions
	// have β-sampled cost columns available.
	sc, err := workload.BlastScenario(workload.AppParams{
		Parallelism: 99, CCR: 1, Beta: 0.5,
	}, workload.GridParams{
		InitialResources: 12, ChangeInterval: 1e9, ChangePct: 1.0, MaxEvents: 1,
	}, r)
	if err != nil {
		log.Fatal(err)
	}
	g, est := sc.Graph, sc.Estimator()

	s0, err := kernel.New(g, est).Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		log.Fatal(err)
	}
	clock := s0.Makespan() / 3
	available := sc.Pool.AvailableAt(clock)

	fmt.Printf("BLAST workflow, %d jobs on %d resources; current plan finishes at %.1f\n",
		g.Len(), len(available), s0.Makespan())
	fmt.Printf("evaluating hypotheticals at t = %.1f (one third in)\n\n", clock)

	// Future (not-yet-arrived) resources serve as the hypothetical
	// additions: the grid "could attract" machines like these.
	var future []grid.Resource
	for _, a := range sc.Pool.Arrivals() {
		if a.Time > clock {
			future = append(future, a.Resource)
		}
	}

	fmt.Printf("%-28s %12s %12s %8s\n", "scenario", "makespan", "delta", "adopt?")
	for _, n := range []int{1, 2, 4, 8} {
		if n > len(future) {
			break
		}
		ans, err := planner.WhatIf(g, est, s0, available, planner.WhatIfQuery{
			Clock: clock,
			Add:   future[:n],
		}, policy.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("add %-24d %12.1f %+12.1f %8v\n", n, ans.NewMakespan, ans.Delta(), ans.WouldAdopt)
	}

	// And the inverse question: losing the busiest resource.
	busiest := busiestResource(s0, available)
	ans, err := planner.WhatIf(g, est, s0, available, planner.WhatIfQuery{
		Clock:  clock,
		Remove: []grid.ID{busiest},
	}, policy.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remove busiest (r%-12d %12.1f %+12.1f %8v\n", busiest+1, ans.NewMakespan, ans.Delta(), ans.WouldAdopt)

	fmt.Println("\nnegative delta: the grid change would shorten the workflow; the planner")
	fmt.Println("adopts only strict improvements, so \"adopt? false\" answers the manager's")
	fmt.Println("question — that machine isn't worth acquiring for this workload.")
}

// busiestResource returns the resource carrying the most scheduled work.
func busiestResource(s *schedule.Schedule, rs []grid.Resource) grid.ID {
	best, bestLoad := rs[0].ID, -1.0
	tls := s.Timelines()
	for _, r := range rs {
		load := 0.0
		for _, a := range tls[r.ID] {
			load += a.Duration()
		}
		if load > bestLoad {
			best, bestLoad = r.ID, load
		}
	}
	return best
}
