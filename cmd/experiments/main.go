// Command experiments regenerates the paper's evaluation tables and
// figures (Yu & Shi, "An Adaptive Rescheduling Strategy for Grid Workflow
// Applications").
//
// Usage:
//
//	experiments [-exp fig5,table3,...] [-samples N] [-seed S] [-tie W]
//	            [-appcap JOBS] [-full]
//
// Without -exp, every experiment runs in the paper's presentation order.
// -samples scales the number of simulated cases per parameter point; the
// paper's own sweep is 500,000 cases, so full-fidelity runs take a while —
// -full selects a heavyweight preset (64 samples per point).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"aheft/internal/experiment"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run regenerates the experiments args select and writes their tables to
// stdout, returning the exit status: 1 when an experiment fails, 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps    = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		samples = fs.Int("samples", 8, "simulated cases per parameter point")
		seed    = fs.Uint64("seed", 1, "root seed for all pseudo-random streams")
		tie     = fs.Float64("tie", 0, "AHEFT near-tie rank exploration window (0 = paper-faithful greedy)")
		appcap  = fs.Int("appcap", 0, "cap application DAG sizes at this many jobs (0 = full Table 5 sizes)")
		full    = fs.Bool("full", false, "heavyweight preset: 64 samples per point")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		format  = fs.String("format", "text", "output format: text or csv")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, id := range experiment.Order {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	cfg := experiment.Config{
		Samples:    *samples,
		Seed:       *seed,
		TieWindow:  *tie,
		WithMinMin: true,
		AppJobCap:  *appcap,
	}
	if *full {
		cfg.Samples = 64
	}

	ids := experiment.Order
	if *exps != "" {
		ids = strings.Split(*exps, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := experiment.Registry[id]
		if !ok {
			fmt.Fprintf(stderr, "experiments: unknown experiment %q (use -list)\n", id)
			return 2
		}
		start := time.Now()
		table, err := run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", id, err)
			return 1
		}
		switch *format {
		case "csv":
			fmt.Fprintf(stdout, "# %s — %s\n%s\n", table.ID, table.Title, table.CSV())
		default:
			fmt.Fprintln(stdout, table.Render())
			fmt.Fprintf(stdout, "(%s in %v, samples/point=%d, seed=%d)\n\n", id, time.Since(start).Round(time.Millisecond), cfg.Samples, cfg.Seed)
		}
	}
	return 0
}
