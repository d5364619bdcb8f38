// Command benchcmp compares two benchjson documents (see cmd/benchjson)
// and prints per-benchmark speedup and allocation ratios:
//
//	benchcmp BENCH_baseline.json BENCH_kernel.json
//
// With --require, it enforces minimum improvement ratios and exits
// non-zero when they are not met — CI uses this to pin the kernel's
// performance contract against the pre-kernel baseline:
//
//	benchcmp old.json new.json \
//	  --require 'BenchmarkKernelReschedule/v=5000:allocs=2.0,ns=1.0'
//
// means: on that benchmark, old.allocs/new.allocs must be >= 2.0 (at
// least 2x fewer allocations) and old.ns/new.ns must be >= 1.0 (not
// slower).
//
// --only restricts the printed comparison to benchmarks whose name starts
// with one of the comma-separated prefixes (a named subset); --require and
// --ratio still resolve against the full documents:
//
//	benchcmp old.json new.json --only BenchmarkKernelReschedule
//
// --ratio gates one benchmark against another WITHIN the new document —
// ns/op of the first must be at least the given multiple of the second:
//
//	benchcmp old.json new.json \
//	  --ratio 'BenchmarkKernelSlotSearch/oracle/packed/n=4096:BenchmarkKernelSlotSearch/packed/n=4096:10'
//
// means: in new.json, the span walk over a packed 4096-span row must take
// >= 10x the ns/op of the timeline search that replaced it.
//
// A document of `go test -count k` holds k runs of each benchmark. The
// table shows medians; a gate judges the median of its per-run ratios (run
// i against run i for --ratio, the old median against each new run for
// --require) and prints their min, median and max.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

type record struct {
	Name        string  `json:"name"`
	Run         int     `json:"run"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type doc struct {
	Benchmarks []record `json:"benchmarks"`
}

type requirement struct {
	bench  string
	allocs float64 // minimum old/new allocs ratio
	ns     float64 // minimum old/new ns ratio
}

// ratioGate pins two benchmarks in the NEW document against each other:
// new[num].ns / new[den].ns must be >= min.
type ratioGate struct {
	num, den string
	min      float64
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

// run compares the two documents named in args, prints the table to
// stdout and returns an error naming every gate that failed.
func run(args []string, stdout io.Writer) error {
	var files []string
	var reqs []requirement
	var ratios []ratioGate
	var only []string
	for i := 0; i < len(args); i++ {
		flag, val, hasVal := strings.Cut(args[i], "=")
		if flag != "--require" && flag != "--ratio" && flag != "--only" {
			files = append(files, args[i])
			continue
		}
		if !hasVal {
			if i++; i >= len(args) {
				return fmt.Errorf("missing %s value", flag)
			}
			val = args[i]
		}
		switch flag {
		case "--require":
			rq, err := parseRequire(val)
			if err != nil {
				return err
			}
			reqs = append(reqs, rq)
		case "--ratio":
			rg, err := parseRatio(val)
			if err != nil {
				return err
			}
			ratios = append(ratios, rg)
		default:
			only = append(only, strings.Split(val, ",")...)
		}
	}
	if len(files) != 2 {
		return errors.New("usage: benchcmp OLD.json NEW.json [--only Prefix,...] [--require 'Bench:allocs=2.0,ns=1.0']... [--ratio 'BenchA:BenchB:10']...")
	}
	oldDoc, err := load(files[0])
	if err != nil {
		return err
	}
	newDoc, err := load(files[1])
	if err != nil {
		return err
	}
	oldBy, newBy := runsByName(oldDoc), runsByName(newDoc)
	fmt.Fprintf(stdout, "%-44s %12s %12s %9s %9s\n", "benchmark", "ns/op", "allocs/op", "ns ×", "allocs ×")
	for _, n := range newDoc.Benchmarks {
		if n.Run > 0 || !selected(n.Name, only) {
			continue // one row per benchmark, at its first run
		}
		ns, allocs := median(values(newBy[n.Name], nsOf)), median(values(newBy[n.Name], allocsOf))
		if o := oldBy[n.Name]; len(o) > 0 {
			fmt.Fprintf(stdout, "%-44s %12.0f %12.0f %9.2f %9.2f\n", n.Name, ns, allocs,
				ratio(median(values(o, nsOf)), ns), ratio(median(values(o, allocsOf)), allocs))
		} else {
			fmt.Fprintf(stdout, "%-44s %12.0f %12.0f %9s %9s\n", n.Name, ns, allocs, "new", "new")
		}
	}
	var failed []error
	judge := func(gate string, rs spread, min float64) {
		if r := median(rs); r < min {
			failed = append(failed, fmt.Errorf("%s %.2f < required %.2f (%s)", gate, r, min, rs))
		} else {
			fmt.Fprintf(stdout, "%s %.2fx (>= %.2f; %s)\n", gate, r, min, rs)
		}
	}
	for _, rg := range ratios {
		num, den := newBy[rg.num], newBy[rg.den]
		switch {
		case len(num) == 0 || len(den) == 0:
			failed = append(failed, fmt.Errorf("ratio benchmark missing in new doc (%q %v, %q %v)", rg.num, len(num) > 0, rg.den, len(den) > 0))
		case len(num) != len(den):
			failed = append(failed, fmt.Errorf("ratio %s / %s: %d runs against %d", rg.num, rg.den, len(num), len(den)))
		default:
			rs := make(spread, len(num))
			for i := range num {
				rs[i] = ratio(num[i].NsPerOp, den[i].NsPerOp)
			}
			judge(fmt.Sprintf("ratio %s / %s =", rg.num, rg.den), rs, rg.min)
		}
	}
	for _, rq := range reqs {
		o, n := oldBy[rq.bench], newBy[rq.bench]
		if len(o) == 0 || len(n) == 0 {
			failed = append(failed, fmt.Errorf("required benchmark %q missing (old %v, new %v)", rq.bench, len(o) > 0, len(n) > 0))
			continue
		}
		if rq.allocs > 0 {
			judge(rq.bench+": allocs ratio", against(o, n, allocsOf), rq.allocs)
		}
		if rq.ns > 0 {
			judge(rq.bench+": ns ratio", against(o, n, nsOf), rq.ns)
		}
	}
	if len(failed) > 0 {
		return errors.Join(failed...)
	}
	if len(reqs)+len(ratios) > 0 {
		fmt.Fprintln(stdout, "all requirements met")
	}
	return nil
}

// runsByName groups a document's records by benchmark, in run order.
func runsByName(d doc) map[string][]record {
	by := map[string][]record{}
	for _, r := range d.Benchmarks {
		by[r.Name] = append(by[r.Name], r)
	}
	return by
}

func nsOf(r record) float64     { return r.NsPerOp }
func allocsOf(r record) float64 { return r.AllocsPerOp }

func values(runs []record, of func(record) float64) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = of(r)
	}
	return v
}

// against is the ratio of the old runs' median to each new run.
func against(old, cur []record, of func(record) float64) spread {
	base, rs := median(values(old, of)), values(cur, of)
	for i, v := range rs {
		rs[i] = ratio(base, v)
	}
	return rs
}

// median is the middle value of v, or the mean of the middle two.
func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// spread is one gate's ratios, one per run; the gate judges their median.
type spread []float64

func (s spread) String() string {
	return fmt.Sprintf("min %.2f, median %.2f, max %.2f over %d runs", slices.Min(s), median(s), slices.Max(s), len(s))
}

// selected reports whether name passes the --only prefix filter; an empty
// filter selects everything.
func selected(name string, only []string) bool {
	if len(only) == 0 {
		return true
	}
	for _, p := range only {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func ratio(old, new float64) float64 {
	if new == 0 {
		if old == 0 {
			return 1
		}
		return old // treat as "infinitely better", bounded by old
	}
	return old / new
}

func parseRequire(s string) (requirement, error) {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return requirement{}, fmt.Errorf("bad --require %q: want 'Bench:allocs=2.0,ns=1.0'", s)
	}
	rq := requirement{bench: s[:i]}
	for _, part := range strings.Split(s[i+1:], ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return rq, fmt.Errorf("bad --require clause %q", part)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return rq, fmt.Errorf("bad --require value %q: %v", v, err)
		}
		switch k {
		case "allocs":
			rq.allocs = f
		case "ns":
			rq.ns = f
		default:
			return rq, fmt.Errorf("bad --require metric %q (want allocs or ns)", k)
		}
	}
	return rq, nil
}

// parseRatio parses 'BenchA:BenchB:min' — benchmark names never contain
// colons, so a plain split is unambiguous.
func parseRatio(s string) (ratioGate, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return ratioGate{}, fmt.Errorf("bad --ratio %q: want 'BenchA:BenchB:10'", s)
	}
	v, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || v <= 0 {
		return ratioGate{}, fmt.Errorf("bad --ratio minimum %q", parts[2])
	}
	return ratioGate{num: parts[0], den: parts[1], min: v}, nil
}

func load(path string) (doc, error) {
	var d doc
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &d)
	}
	if err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
