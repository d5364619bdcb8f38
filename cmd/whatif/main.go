// Command whatif answers the paper's §3.3 "What...if..." capacity-planning
// queries: given a workflow mid-execution, what would the expected
// makespan become if resources were added to (or removed from) the grid at
// a chosen moment?
//
// The tool builds a scenario, executes its schedule up to the query clock,
// then evaluates the hypothetical pool change with the same snapshot +
// reschedule machinery the live planner uses — without submitting
// anything.
//
// Usage examples:
//
//	whatif -workload blast -jobs 200 -pool 20 -clock 300 -add 4
//	whatif -workload random -jobs 60 -clock 0.25rel -remove r3,r7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "whatif:", err)
		os.Exit(1)
	}
}

// run parses args, answers the query and prints the verdict to stdout.
// Flag errors print the usage to stderr and exit the process, as the
// flag package's default command line does.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		kind   = fs.String("workload", "blast", "workload: sample, random, blast, wien2k")
		jobs   = fs.Int("jobs", 200, "total job count υ")
		ccr    = fs.Float64("ccr", 1.0, "communication-to-computation ratio")
		beta   = fs.Float64("beta", 0.5, "heterogeneity factor β")
		pool   = fs.Int("pool", 10, "initial pool size R")
		seed   = fs.Uint64("seed", 1, "random seed")
		clockS = fs.String("clock", "0.25rel", "query time: absolute (e.g. 300) or fraction of the makespan with 'rel' suffix (e.g. 0.25rel)")
		add    = fs.Int("add", 1, "hypothetical resources to add")
		remove = fs.String("remove", "", "comma-separated resource names to remove (e.g. r3,r7)")
		tie    = fs.Float64("tie", 0, "near-tie exploration window")
	)
	fs.Parse(args)

	r := rng.New(*seed)
	sc, err := buildScenario(*kind, *jobs, *ccr, *beta, *pool, r)
	if err != nil {
		return err
	}
	est := sc.Estimator()
	s0, err := kernel.New(sc.Graph, est).Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		return err
	}

	clock, err := parseClock(*clockS, s0.Makespan())
	if err != nil {
		return err
	}

	available := sc.Pool.AvailableAt(clock)
	q := planner.WhatIfQuery{Clock: clock}
	// Hypothetical additions take fresh IDs beyond the scenario's pool;
	// their costs must exist in the table, so we reuse the cost columns of
	// the scenario's not-yet-arrived resources (the β-sampled future
	// arrivals), which is exactly what "a resource like the ones this grid
	// attracts" means.
	future := futureResources(sc, clock)
	if *add > len(future) {
		return fmt.Errorf("scenario has cost data for at most %d hypothetical additions (asked for %d);\n"+
			"         increase -pool churn by regenerating, or lower -add", len(future), *add)
	}
	q.Add = future[:*add]
	if *remove != "" {
		for _, name := range strings.Split(*remove, ",") {
			id := findResource(available, strings.TrimSpace(name))
			if id == grid.NoResource {
				return fmt.Errorf("resource %q not in the pool at t=%g", name, clock)
			}
			q.Remove = append(q.Remove, id)
		}
	}

	ans, err := planner.WhatIf(sc.Graph, est, s0, available, q, policy.Options{TieWindow: *tie})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workflow %s (%d jobs), pool %d at t=%.1f\n", sc.Graph.Name(), sc.Graph.Len(), len(available), clock)
	fmt.Fprintf(stdout, "query: add %d, remove %d resource(s) at t=%.1f\n\n", len(q.Add), len(q.Remove), clock)
	fmt.Fprintf(stdout, "current plan makespan:      %10.2f\n", ans.CurrentMakespan)
	fmt.Fprintf(stdout, "hypothetical makespan:      %10.2f\n", ans.NewMakespan)
	fmt.Fprintf(stdout, "delta:                      %+10.2f (%+.1f%%)\n",
		ans.Delta(), 100*ans.Delta()/ans.CurrentMakespan)
	if ans.WouldAdopt {
		fmt.Fprintln(stdout, "verdict: the adaptive planner WOULD adopt the new schedule")
	} else {
		fmt.Fprintln(stdout, "verdict: the adaptive planner would KEEP the current schedule")
	}
	return nil
}

func parseClock(s string, makespan float64) (float64, error) {
	if frac, ok := strings.CutSuffix(s, "rel"); ok {
		f, err := strconv.ParseFloat(frac, 64)
		if err != nil || f < 0 || f > 1 {
			return 0, fmt.Errorf("bad relative clock %q (want e.g. 0.25rel)", s)
		}
		return f * makespan, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad clock %q", s)
	}
	return v, nil
}

func futureResources(sc *workload.Scenario, clock float64) []grid.Resource {
	var out []grid.Resource
	for _, a := range sc.Pool.Arrivals() {
		if a.Time > clock {
			out = append(out, a.Resource)
		}
	}
	return out
}

func findResource(rs []grid.Resource, name string) grid.ID {
	for _, r := range rs {
		if r.Name == name {
			return r.ID
		}
	}
	return grid.NoResource
}

func buildScenario(kind string, jobs int, ccr, beta float64, pool int, r *rng.Source) (*workload.Scenario, error) {
	// Generate generous future arrivals so hypothetical additions have
	// sampled cost columns to draw on.
	gp := workload.GridParams{InitialResources: pool, ChangeInterval: 1e9, ChangePct: 1.0, MaxEvents: 1}
	switch kind {
	case "sample":
		return workload.SampleScenario(), nil
	case "random":
		return workload.RandomScenario(workload.RandomParams{
			Jobs: jobs, CCR: ccr, OutDegree: 0.3, Beta: beta,
		}, gp, r)
	case "blast":
		return workload.BlastScenario(workload.AppParams{
			Parallelism: workload.BlastParallelism(jobs), CCR: ccr, Beta: beta,
		}, gp, r)
	case "wien2k":
		return workload.Wien2kScenario(workload.AppParams{
			Parallelism: workload.Wien2kParallelism(jobs), CCR: ccr, Beta: beta,
		}, gp, r)
	default:
		return nil, fmt.Errorf("unknown workload %q", kind)
	}
}
