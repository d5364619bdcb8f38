// Command dagen generates workflow DAGs — parametric random graphs or the
// BLAST / WIEN2K / Montage application shapes — and writes them as JSON
// (the library's native interchange format) or Graphviz DOT.
//
// Usage examples:
//
//	dagen -kind blast -jobs 22 -format dot | dot -Tpng > blast.png
//	dagen -kind random -jobs 60 -ccr 5 -outdegree 0.2 > wf.json
//	dagen -kind sample -format dot
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"aheft/internal/dag"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run generates one DAG from args and writes it to stdout, returning the
// exit status: 1 when the DAG cannot be built, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind   = fs.String("kind", "random", "DAG kind: sample, random, blast, wien2k, montage")
		jobs   = fs.Int("jobs", 20, "total job count υ")
		ccr    = fs.Float64("ccr", 1.0, "communication-to-computation ratio")
		outdeg = fs.Float64("outdegree", 0.3, "max out-degree as fraction of υ (random)")
		alpha  = fs.Float64("alpha", 1.0, "shape α: width ≈ α·sqrt(υ) (random)")
		seed   = fs.Uint64("seed", 1, "random seed")
		format = fs.String("format", "json", "output format: json or dot")
		stats  = fs.Bool("stats", false, "print shape statistics to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *format != "json" && *format != "dot" {
		fmt.Fprintf(stderr, "dagen: unknown format %q\n", *format)
		return 2
	}
	g, err := build(*kind, *jobs, *ccr, *outdeg, *alpha, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "dagen:", err)
		return 1
	}
	if *stats {
		fmt.Fprintf(stderr, "%s: %d jobs, %d edges, width %d, %d levels, parallelism %.2f, total data %.1f\n",
			g.Name(), g.Len(), g.NumEdges(), g.Width(), len(g.Levels()), g.Parallelism(), g.TotalData())
	}
	if *format == "dot" {
		fmt.Fprint(stdout, g.DOT())
		return 0
	}
	data, err := g.MarshalJSON()
	if err != nil {
		fmt.Fprintln(stderr, "dagen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

func build(kind string, jobs int, ccr, outdeg, alpha float64, seed uint64) (*dag.Graph, error) {
	r := rng.New(seed)
	switch kind {
	case "sample":
		return workload.SampleDAG(), nil
	case "random":
		return workload.RandomDAG(workload.RandomParams{
			Jobs: jobs, CCR: ccr, OutDegree: outdeg, Alpha: alpha,
		}, r)
	case "blast":
		return workload.BLAST(workload.AppParams{
			Parallelism: workload.BlastParallelism(jobs), CCR: ccr,
		}, r)
	case "wien2k":
		return workload.WIEN2K(workload.AppParams{
			Parallelism: workload.Wien2kParallelism(jobs), CCR: ccr,
		}, r)
	case "montage":
		p := jobs / 3
		if p < 1 {
			p = 1
		}
		return workload.Montage(workload.AppParams{Parallelism: p, CCR: ccr}, r)
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}
