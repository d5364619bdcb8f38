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
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

type record struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
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
	oldBy := map[string]record{}
	for _, o := range oldDoc.Benchmarks {
		oldBy[o.Name] = o
	}
	fmt.Fprintf(stdout, "%-44s %12s %12s %9s %9s\n", "benchmark", "ns/op", "allocs/op", "ns ×", "allocs ×")
	newBy := map[string]record{}
	for _, n := range newDoc.Benchmarks {
		newBy[n.Name] = n
		if !selected(n.Name, only) {
			continue
		}
		o, ok := oldBy[n.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-44s %12.0f %12.0f %9s %9s\n", n.Name, n.NsPerOp, n.AllocsPerOp, "new", "new")
			continue
		}
		fmt.Fprintf(stdout, "%-44s %12.0f %12.0f %9.2f %9.2f\n",
			n.Name, n.NsPerOp, n.AllocsPerOp, ratio(o.NsPerOp, n.NsPerOp), ratio(o.AllocsPerOp, n.AllocsPerOp))
	}
	var failed []error
	for _, rg := range ratios {
		num, okN := newBy[rg.num]
		den, okD := newBy[rg.den]
		if !okN || !okD {
			failed = append(failed, fmt.Errorf("ratio benchmark missing in new doc (%q %v, %q %v)", rg.num, okN, rg.den, okD))
			continue
		}
		if r := ratio(num.NsPerOp, den.NsPerOp); r < rg.min {
			failed = append(failed, fmt.Errorf("ratio %s / %s = %.2f < required %.2f (%.0f / %.0f ns/op)",
				rg.num, rg.den, r, rg.min, num.NsPerOp, den.NsPerOp))
		} else {
			fmt.Fprintf(stdout, "ratio %s / %s = %.2fx (>= %.2f)\n", rg.num, rg.den, r, rg.min)
		}
	}
	for _, rq := range reqs {
		o, okO := oldBy[rq.bench]
		n, okN := newBy[rq.bench]
		if !okO || !okN {
			failed = append(failed, fmt.Errorf("required benchmark %q missing (old %v, new %v)", rq.bench, okO, okN))
			continue
		}
		if r := ratio(o.AllocsPerOp, n.AllocsPerOp); rq.allocs > 0 && r < rq.allocs {
			failed = append(failed, fmt.Errorf("%s: allocs ratio %.2f < required %.2f (%.0f → %.0f allocs/op)",
				rq.bench, r, rq.allocs, o.AllocsPerOp, n.AllocsPerOp))
		}
		if r := ratio(o.NsPerOp, n.NsPerOp); rq.ns > 0 && r < rq.ns {
			failed = append(failed, fmt.Errorf("%s: ns ratio %.2f < required %.2f (%.0f → %.0f ns/op)",
				rq.bench, r, rq.ns, o.NsPerOp, n.NsPerOp))
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
