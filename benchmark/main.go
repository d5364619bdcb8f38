// Command benchmark is the repository's end-to-end benchmark: it builds
// cmd/aheftd, runs it as a separate process on loopback, drives it from
// closed-loop clients with inputs generated from a seed, checks every
// output, and prints each metric by name and unit. See README.md for the
// workloads, the metrics and how to read a result.
//
//	go run ./benchmark                       # whole suite, seed 1
//	go run ./benchmark -sets 2 -seed 2       # agreement check on the held-out seed
//	go run ./benchmark -workload live_data_staging -seed 7 -seconds 15 -trace 1
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1) named in
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workloadName := flag.String("workload", "", "run one workload and end with the JSON result line (default: the whole suite)")
	seed := flag.Uint64("seed", 1, "input seed; seed 2 is the held-out seed for claims")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: also run the in-process traced pass and report per-layer metrics")
	sets := flag.Int("sets", 1, "run the suite this many times and fail if any end-to-end metric's spread exceeds its bound")
	flag.Parse()

	defer runCleanups()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()

	manifest, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, clients: clientCount()}
	if o.seconds <= 0 {
		o.seconds = float64(manifest.RunSeconds)
	}

	if *workloadName != "" {
		sp, ok := specByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		o.split = true
		r := runWorkload(sp, o)
		printResult(os.Stdout, r, manifest)
		if err := printResultLine(os.Stdout, r, manifest, o.trace); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !r.correct() {
			return 1
		}
		return 0
	}
	return runSuite(o, *sets, manifest)
}

// clientCount is C = min(nproc, 4): the closed-loop clients, one
// keep-alive connection each.
func clientCount() int {
	n := runtime.NumCPU()
	if n > maxClients {
		n = maxClients
	}
	return n
}

func runWorkload(sp spec, o options) *result {
	if sp.name == wlCrashRecovery {
		return runCrash(sp, o)
	}
	return runTimed(sp, o)
}

// manifest is BENCHMARK.json: the contract the result line is held to.
type manifest struct {
	RunSeconds int            `json:"run_seconds"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
	Workloads  []workloadDecl `json:"workloads"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run the benchmark from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if m.RunSeconds <= 0 || len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: missing run_seconds, end_to_end or per_layer")
	}
	return &m, nil
}

// printResult writes the human-readable report of one run: identity,
// operation counts, every metric with unit and sample count.
func printResult(w *os.File, r *result, m *manifest) {
	fmt.Fprintf(w, "== %s  seed=%d  input_digest=%s\n", r.workload, r.seed, r.digest)
	fmt.Fprintf(w, "   ops attempted=%d succeeded=%d failed=%d\n", r.attempted, r.attempted-r.failed, r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(w, "   ERROR %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	row := func(d metricDecl, vals map[string]float64, bound bool) {
		v, ok := vals[d.Name]
		if !ok {
			return
		}
		line := fmt.Sprintf("   %-32s %14.4f %-6s (%s is better", d.Name, v, d.Unit, d.Better)
		if bound {
			line += fmt.Sprintf(", bound %.0f%%", d.Bound*100)
		}
		if n, ok := r.samples[d.Name]; ok {
			line += fmt.Sprintf(", n=%d", n)
		}
		fmt.Fprintln(w, line+")")
	}
	fmt.Fprintln(w, "   -- end to end")
	for _, d := range m.EndToEnd {
		row(d, r.e2e, true)
	}
	fmt.Fprintln(w, "   -- per layer")
	declared := map[string]bool{}
	for _, d := range m.PerLayer {
		declared[d.Name] = true
		row(d, r.layer, false)
	}
	// Layer metrics measured but not declared in BENCHMARK.json still
	// print, so nothing measured is hidden.
	var extra []string
	for name := range r.layer {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "   %-32s %14.4f (undeclared)\n", name, r.layer[name])
	}
}

// printResultLine writes the contract's last line: every end-to-end
// metric untraced, every per-layer metric traced.
func printResultLine(w *os.File, r *result, m *manifest, traced bool) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decls, vals := m.EndToEnd, r.e2e
	if traced {
		decls, vals = m.PerLayer, r.layer
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]val{}}
	for _, d := range decls {
		v, ok := vals[d.Name]
		if !ok {
			if r.correct() {
				return fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
			}
			continue
		}
		out.Metrics[d.Name] = val{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		if out.Failed == 0 {
			out.Failed = 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
