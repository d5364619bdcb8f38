// Package experiment reproduces the paper's evaluation (§4): the worked
// example of Fig. 4/5, the random-DAG sweep with its headline makespans
// and Tables 3–4, the BLAST/WIEN2K application study of Tables 6–8, and
// the six panels of Fig. 8. Each experiment is a named Runner that
// produces a Table of the same rows/series the paper reports; the
// cmd/experiments binary and the root benchmark suite both drive this
// registry.
//
// The paper's full sweep is 500,000 cases; Config.Samples scales the
// sample count per parameter point so the same code serves quick smoke
// runs, benchmarks, and full overnight reproductions. Every case derives
// its own rng stream from (Seed, experiment, point, index), so results
// are reproducible and independent of execution order; cases run
// concurrently across Workers goroutines.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/stats"
	"aheft/internal/workload"
)

// Parameter value sets from the paper's Table 2 (random DAGs) and Table 5
// (BLAST/WIEN2K).
var (
	RandomJobs  = []int{20, 40, 60, 80, 100}
	CCRs        = []float64{0.1, 0.5, 1.0, 5.0, 10.0}
	OutDegrees  = []float64{0.1, 0.2, 0.3, 0.4, 1.0}
	Betas       = []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	RandomPools = []int{10, 20, 30, 40, 50}
	AppJobs     = []int{200, 400, 600, 800, 1000}
	AppPools    = []int{20, 40, 60, 80, 100}
	Intervals   = []float64{400, 800, 1200, 1600}
	ChangePcts  = []float64{0.10, 0.15, 0.20, 0.25}
)

// Config tunes an experiment run.
type Config struct {
	// Samples is the number of simulated cases per parameter point.
	Samples int
	// Seed roots every pseudo-random stream of the run.
	Seed uint64
	// TieWindow enables near-tie rank exploration in AHEFT (0 is the
	// paper-faithful greedy; see kernel.Options.TieWindow).
	TieWindow float64
	// WithMinMin also runs the dynamic Min-Min baseline where the
	// experiment calls for it (the §4.2 headline comparison).
	WithMinMin bool
	// AppJobCap, when positive, filters the AppJobs sweep to sizes ≤ the
	// cap — benchmarks use it to bound runtime.
	AppJobCap int
	// Workers bounds concurrency; zero means GOMAXPROCS.
	Workers int
}

func (c Config) samples() int {
	if c.Samples <= 0 {
		return 4
	}
	return c.Samples
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) appJobs() []int {
	if c.AppJobCap <= 0 {
		return AppJobs
	}
	var out []int
	for _, v := range AppJobs {
		if v <= c.AppJobCap {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		out = []int{c.AppJobCap}
	}
	return out
}

// CaseOut is the outcome of simulating one scenario under the strategies
// being compared.
type CaseOut struct {
	HEFT      float64 // static HEFT makespan
	AHEFT     float64 // adaptive makespan
	MinMin    float64 // dynamic baseline makespan (0 when not run)
	Adoptions int     // adopted reschedules
}

// Improvement returns (HEFT − AHEFT)/HEFT for this case.
func (c CaseOut) Improvement() float64 { return stats.Improvement(c.HEFT, c.AHEFT) }

// RunCase simulates one scenario under static HEFT and AHEFT (and
// optionally dynamic Min-Min) and returns the makespans. All three
// strategies run through the shared policy engine.
func RunCase(sc *workload.Scenario, cfg Config, withMinMin bool) (CaseOut, error) {
	var out CaseOut
	ctx := context.Background()
	est := sc.Estimator()
	static, err := planner.RunPolicy(ctx, sc.Graph, est, sc.Pool, policy.MustGet("heft"), policy.Options{})
	if err != nil {
		return out, err
	}
	adaptive, err := planner.RunPolicy(ctx, sc.Graph, est, sc.Pool, policy.MustGet("aheft"),
		policy.Options{TieWindow: cfg.TieWindow})
	if err != nil {
		return out, err
	}
	out.HEFT = static.Makespan
	out.AHEFT = adaptive.Makespan
	out.Adoptions = adaptive.Adoptions()
	if withMinMin {
		dyn, err := planner.RunPolicy(ctx, sc.Graph, est, sc.Pool, policy.MustGet("minmin"), policy.Options{})
		if err != nil {
			return out, err
		}
		out.MinMin = dyn.Makespan
	}
	return out, nil
}

// Table is a rendered experiment result: the rows/series a paper table or
// figure reports.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header row first),
// for plotting pipelines.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		return c
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// Runner produces one experiment's table.
type Runner func(cfg Config) (*Table, error)

// Registry maps experiment IDs (fig5, headline, table3, table4, table6,
// table7, table8, fig8a…fig8f) to their runners.
var Registry = map[string]Runner{
	"fig5":      Fig5,
	"headline":  Headline,
	"table3":    Table3,
	"table4":    Table4,
	"table6":    Table6,
	"table7":    Table7,
	"table8":    Table8,
	"fig8a":     Fig8a,
	"fig8b":     Fig8b,
	"fig8c":     Fig8c,
	"fig8d":     Fig8d,
	"fig8e":     Fig8e,
	"fig8f":     Fig8f,
	"ablations": Ablations,
	"montage":   MontageExt,
}

// Order lists the registry keys in the paper's presentation order.
var Order = []string{
	"fig5", "headline", "table3", "table4",
	"table6", "table7", "table8",
	"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f",
	"ablations", "montage",
}

// choice helpers draw uniformly from a value set.
func choiceInt(r *rng.Source, vs []int) int         { return vs[r.IntN(len(vs))] }
func choiceF64(r *rng.Source, vs []float64) float64 { return vs[r.IntN(len(vs))] }

// sweepPoint evaluates samples cases at one parameter point concurrently
// and aggregates the per-case outputs.
type pointAgg struct {
	HEFT, AHEFT, MinMin, Improvement stats.Sample
	Adoptions                        stats.Sample
}

func (a *pointAgg) add(c CaseOut) {
	a.HEFT.Add(c.HEFT)
	a.AHEFT.Add(c.AHEFT)
	if c.MinMin > 0 {
		a.MinMin.Add(c.MinMin)
	}
	a.Improvement.Add(c.Improvement())
	a.Adoptions.Add(float64(c.Adoptions))
}

// runPoint builds and simulates cfg.samples() scenarios derived from the
// (experiment, point) labels and aggregates them.
func runPoint(cfg Config, expID, point string, withMinMin bool,
	build func(r *rng.Source) (*workload.Scenario, error)) (*pointAgg, error) {

	n := cfg.samples()
	outs := make([]CaseOut, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.workers())
	root := rng.New(cfg.Seed).Split(expID).Split(point)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			r := root.Split(fmt.Sprintf("case-%d", i))
			sc, err := build(r)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = RunCase(sc, cfg, withMinMin)
		}(i)
	}
	wg.Wait()
	agg := &pointAgg{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("experiment %s point %s case %d: %w", expID, point, i, errs[i])
		}
		agg.add(outs[i])
	}
	return agg, nil
}

func f2(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
