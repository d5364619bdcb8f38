package main

import (
	"fmt"
	"math"
	"sort"

	"aheft/internal/wire"
)

// timeEps absorbs float noise in comparisons of schedule times, which run
// from 1e0 to 1e5 in these workloads.
func timeEps(t float64) float64 { return 1e-6 * math.Max(1, math.Abs(t)) }

// validatePlan is the benchmark's own referee for every plan the daemon
// hands out, independent of the daemon's schedule package: every job is
// placed exactly once on a resource of the universe, every edge leaves at
// least the contention-free transfer time between producer finish and
// consumer start, no two jobs overlap on a resource, and the advertised
// makespan is the last finish.
func validatePlan(v *variant, p *wire.Plan) error {
	n, nRes := v.jobs(), v.resources()
	if len(p.Assignments) != n {
		return fmt.Errorf("plan places %d of %d jobs", len(p.Assignments), n)
	}
	byJob := make([]wire.Assignment, n)
	seen := make([]bool, n)
	last := 0.0
	for _, a := range p.Assignments {
		switch {
		case a.Job < 0 || a.Job >= n:
			return fmt.Errorf("plan names unknown job %d", a.Job)
		case seen[a.Job]:
			return fmt.Errorf("job %d placed twice", a.Job)
		case a.Resource < 0 || a.Resource >= nRes:
			return fmt.Errorf("job %d on unknown resource %d", a.Job, a.Resource)
		case math.IsNaN(a.Start) || math.IsInf(a.Start, 0) || math.IsNaN(a.Finish) || math.IsInf(a.Finish, 0):
			return fmt.Errorf("job %d has non-finite times", a.Job)
		case a.Start < 0 || a.Finish < a.Start:
			return fmt.Errorf("job %d runs [%g, %g]", a.Job, a.Start, a.Finish)
		}
		seen[a.Job] = true
		byJob[a.Job] = a
		last = math.Max(last, a.Finish)
	}
	if math.Abs(last-p.Makespan) > timeEps(last) {
		return fmt.Errorf("plan advertises makespan %g, last finish is %g", p.Makespan, last)
	}
	g := v.sc.Graph
	for j := 0; j < n; j++ {
		a := byJob[j]
		for _, e := range g.Preds(g.Jobs()[j].ID) {
			pa := byJob[e.From]
			ready := pa.Finish + v.comm(e, pa.Resource, a.Resource)
			if a.Start+timeEps(ready) < ready {
				return fmt.Errorf("job %d starts at %g on r%d, input from job %d (r%d) arrives at %g",
					j, a.Start, a.Resource, pa.Job, pa.Resource, ready)
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := byJob[order[x]], byJob[order[y]]
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Finish < b.Finish
	})
	for i := 1; i < n; i++ {
		prev, cur := byJob[order[i-1]], byJob[order[i]]
		if prev.Resource == cur.Resource && cur.Start+timeEps(prev.Finish) < prev.Finish {
			return fmt.Errorf("jobs %d [%g, %g] and %d [%g, %g] overlap on r%d",
				prev.Job, prev.Start, prev.Finish, cur.Job, cur.Start, cur.Finish, cur.Resource)
		}
	}
	return nil
}
