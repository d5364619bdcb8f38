// Command gridsim runs a single grid-workflow simulation and prints the
// outcome: makespan per strategy, the rescheduling decisions the adaptive
// planner made, and (optionally) a text Gantt chart of the final schedule.
//
// Usage examples:
//
//	gridsim -workload sample                          # the paper's Fig. 4/5 example
//	gridsim -workload blast -jobs 400 -ccr 5 -pool 20 -interval 400 -pct 0.2
//	gridsim -workload random -jobs 60 -ccr 1 -beta 0.5 -gantt
//	gridsim -workload wien2k -jobs 200 -strategies heft,aheft,minmin
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"aheft"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "gridsim:", err)
			os.Exit(1)
		}
	}
}

// run parses args, simulates the workload under each strategy and writes
// the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		kind       = fs.String("workload", "sample", "workload: sample, random, blast, wien2k, montage")
		jobs       = fs.Int("jobs", 100, "total job count υ (random/blast/wien2k/montage)")
		ccr        = fs.Float64("ccr", 1.0, "communication-to-computation ratio")
		beta       = fs.Float64("beta", 0.5, "resource heterogeneity factor β")
		outdeg     = fs.Float64("outdegree", 0.3, "max out-degree as fraction of υ (random)")
		alpha      = fs.Float64("alpha", 1.0, "DAG shape α: width ≈ α·sqrt(υ) (random)")
		pool       = fs.Int("pool", 10, "initial resource pool size R")
		interval   = fs.Float64("interval", 400, "resource change interval Δ (0 = static grid)")
		pct        = fs.Float64("pct", 0.2, "resource change percentage δ")
		seed       = fs.Uint64("seed", 1, "random seed")
		tie        = fs.Float64("tie", 0, "AHEFT near-tie exploration window")
		strategies = fs.String("strategies", "heft,aheft,minmin",
			"comma-separated policy names ("+strings.Join(policy.Names(), ", ")+")")
		gantt     = fs.Bool("gantt", false, "print a Gantt chart of each final schedule")
		decisions = fs.Bool("decisions", true, "print the adaptive planner's decisions")
		traceFile = fs.String("trace", "", "write a JSONL execution trace of the adaptive run to this file: job finishes, resource arrivals and rescheduling decisions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, err := buildScenario(*kind, *jobs, *ccr, *beta, *outdeg, *alpha, *pool, *interval, *pct, *seed)
	if err != nil {
		return err
	}
	g := sc.Graph
	fmt.Fprintf(stdout, "workflow %s: %d jobs, %d edges, width %d, %d levels\n",
		g.Name(), g.Len(), g.NumEdges(), g.Width(), len(g.Levels()))
	fmt.Fprintf(stdout, "grid: %d initial resources, %d arrivals at %v\n\n",
		len(sc.Pool.Initial()), sc.Pool.Size()-len(sc.Pool.Initial()), sc.Pool.ChangeTimes())

	nameOf := func(j dag.JobID) string { return g.Job(j).Name }
	resName := func(r grid.ID) string {
		if res, ok := sc.Pool.Resource(r); ok {
			return res.Name
		}
		return fmt.Sprintf("r%d", r+1)
	}

	traced := false
	for _, given := range strings.Split(*strategies, ",") {
		pol, err := policy.Get(given)
		if err != nil {
			return err
		}
		name := pol.Name()
		res, err := aheft.Run(context.Background(), g, sc.Estimator(), sc.Pool,
			aheft.WithPolicy(name), aheft.WithTieWindow(*tie))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *traceFile != "" && pol.Adaptive() {
			n, err := writeTrace(*traceFile, sc, res)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace (%d events) written to %s\n", n, *traceFile)
			traced = true
		}
		if pol.Adaptive() {
			fmt.Fprintf(stdout, "%-9s (adaptive): makespan %10.2f  (%.1f%% vs initial plan, %d/%d reschedules adopted)\n",
				name, res.Makespan, 100*res.Improvement(), res.Adoptions(), len(res.Decisions))
			if *decisions {
				for _, d := range res.Decisions {
					verdict := "kept current"
					if d.Adopted {
						verdict = "adopted"
					}
					fmt.Fprintf(stdout, "  t=%8.1f %s(+%d) pool=%3d finished=%4d  %10.2f -> %10.2f  %s\n",
						d.Clock, d.Trigger, d.ArrivedCount, d.PoolSize, d.JobsFinished,
						d.OldMakespan, d.NewMakespan, verdict)
				}
			}
		} else {
			fmt.Fprintf(stdout, "%-9s (one-shot): makespan %10.2f\n", name, res.Makespan)
		}
		if *gantt {
			fmt.Fprintln(stdout, res.Schedule.Gantt(96, nameOf, resName))
		}
	}
	if *traceFile != "" && !traced {
		fmt.Fprintf(os.Stderr, "gridsim: warning: -trace applies only to adaptive policies; none in %q, no trace written\n", *strategies)
	}
	return nil
}

// traceEvent is one line of the -trace JSONL, on the simulated clock.
type traceEvent struct {
	Time float64 `json:"t"`
	Kind string  `json:"kind"`
	// Job fields (job_finish).
	Job      dag.JobID `json:"job,omitempty"`
	JobName  string    `json:"job_name,omitempty"`
	Resource grid.ID   `json:"resource,omitempty"`
	Duration float64   `json:"duration,omitempty"`
	// Arrival fields (resource_arrival).
	Arrived []string `json:"arrived,omitempty"`
	// Decision fields (reschedule).
	Old          float64 `json:"old_makespan,omitempty"`
	New          float64 `json:"new_makespan,omitempty"`
	Adopted      bool    `json:"adopted,omitempty"`
	Trigger      string  `json:"trigger,omitempty"`
	ArrivedCount int     `json:"arrived_count,omitempty"`
}

// writeTrace writes the adaptive run as JSON Lines in simulated-time
// order and returns the number of events: a job_finish per assignment of
// the final schedule (under accurate estimates its times are the actual
// ones), a resource_arrival per pool change before the makespan (the
// enactment stops at the last finish), and a reschedule per decision. At
// one instant finishes come first, then the arrival, then the decision it
// caused — drive.Enact's event order.
func writeTrace(path string, sc *workload.Scenario, res *aheft.Result) (int, error) {
	var evs []traceEvent
	for _, a := range res.Schedule.Assignments() {
		evs = append(evs, traceEvent{
			Time: a.Finish, Kind: "job_finish", Job: a.Job, JobName: sc.Graph.Job(a.Job).Name,
			Resource: a.Resource, Duration: a.Finish - a.Start,
		})
	}
	for _, t := range sc.Pool.ChangeTimes() {
		if t >= res.Makespan {
			break
		}
		var names []string
		for _, r := range sc.Pool.ArrivalsAt(t) {
			names = append(names, r.Name)
		}
		evs = append(evs, traceEvent{Time: t, Kind: "resource_arrival", Arrived: names})
	}
	for _, d := range res.Decisions {
		evs = append(evs, traceEvent{
			Time: d.Clock, Kind: "reschedule", Old: d.OldMakespan, New: d.NewMakespan,
			Adopted: d.Adopted, Trigger: d.Trigger.String(), ArrivedCount: d.ArrivedCount,
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })

	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(f)
	for _, e := range evs {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return 0, err
		}
	}
	return len(evs), f.Close()
}

func buildScenario(kind string, jobs int, ccr, beta, outdeg, alpha float64, pool int, interval, pct float64, seed uint64) (*workload.Scenario, error) {
	r := rng.New(seed)
	gp := workload.GridParams{InitialResources: pool, ChangeInterval: interval, ChangePct: pct}
	switch kind {
	case "sample":
		return workload.SampleScenario(), nil
	case "random":
		return workload.RandomScenario(workload.RandomParams{
			Jobs: jobs, CCR: ccr, OutDegree: outdeg, Beta: beta, Alpha: alpha,
		}, gp, r)
	case "blast":
		return workload.BlastScenario(workload.AppParams{
			Parallelism: workload.BlastParallelism(jobs), CCR: ccr, Beta: beta,
		}, gp, r)
	case "wien2k":
		return workload.Wien2kScenario(workload.AppParams{
			Parallelism: workload.Wien2kParallelism(jobs), CCR: ccr, Beta: beta,
		}, gp, r)
	case "montage":
		return workload.MontageScenario(workload.AppParams{
			Parallelism: jobs / 3, CCR: ccr, Beta: beta,
		}, gp, r)
	default:
		return nil, fmt.Errorf("unknown workload %q", kind)
	}
}
