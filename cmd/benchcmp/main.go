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
	"fmt"
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
	var files []string
	var reqs []requirement
	var ratios []ratioGate
	var only []string
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "--require":
			i++
			if i >= len(args) {
				fatal("missing --require value")
			}
			reqs = append(reqs, parseRequire(args[i]))
		case strings.HasPrefix(args[i], "--require="):
			reqs = append(reqs, parseRequire(strings.TrimPrefix(args[i], "--require=")))
		case args[i] == "--ratio":
			i++
			if i >= len(args) {
				fatal("missing --ratio value")
			}
			ratios = append(ratios, parseRatio(args[i]))
		case strings.HasPrefix(args[i], "--ratio="):
			ratios = append(ratios, parseRatio(strings.TrimPrefix(args[i], "--ratio=")))
		case args[i] == "--only":
			i++
			if i >= len(args) {
				fatal("missing --only value")
			}
			only = append(only, strings.Split(args[i], ",")...)
		case strings.HasPrefix(args[i], "--only="):
			only = append(only, strings.Split(strings.TrimPrefix(args[i], "--only="), ",")...)
		default:
			files = append(files, args[i])
		}
	}
	if len(files) != 2 {
		fatal("usage: benchcmp OLD.json NEW.json [--only Prefix,...] [--require 'Bench:allocs=2.0,ns=1.0']... [--ratio 'BenchA:BenchB:10']...")
	}
	oldDoc, newDoc := load(files[0]), load(files[1])
	oldBy := index(oldDoc)
	fmt.Printf("%-44s %12s %12s %9s %9s\n", "benchmark", "ns/op", "allocs/op", "ns ×", "allocs ×")
	newBy := map[string]record{}
	for _, n := range newDoc.Benchmarks {
		newBy[n.Name] = n
		if !selected(n.Name, only) {
			continue
		}
		o, ok := oldBy[n.Name]
		if !ok {
			fmt.Printf("%-44s %12.0f %12.0f %9s %9s\n", n.Name, n.NsPerOp, n.AllocsPerOp, "new", "new")
			continue
		}
		fmt.Printf("%-44s %12.0f %12.0f %9.2f %9.2f\n",
			n.Name, n.NsPerOp, n.AllocsPerOp, ratio(o.NsPerOp, n.NsPerOp), ratio(o.AllocsPerOp, n.AllocsPerOp))
	}
	failed := false
	for _, rg := range ratios {
		num, okN := newBy[rg.num]
		den, okD := newBy[rg.den]
		if !okN || !okD {
			fmt.Fprintf(os.Stderr, "benchcmp: ratio benchmark missing in new doc (%q %v, %q %v)\n", rg.num, okN, rg.den, okD)
			failed = true
			continue
		}
		if r := ratio(num.NsPerOp, den.NsPerOp); r < rg.min {
			fmt.Fprintf(os.Stderr, "benchcmp: ratio %s / %s = %.2f < required %.2f (%.0f / %.0f ns/op)\n",
				rg.num, rg.den, r, rg.min, num.NsPerOp, den.NsPerOp)
			failed = true
		} else {
			fmt.Printf("ratio %s / %s = %.2fx (>= %.2f)\n", rg.num, rg.den, r, rg.min)
		}
	}
	for _, rq := range reqs {
		o, okO := oldBy[rq.bench]
		n, okN := newBy[rq.bench]
		if !okO || !okN {
			fmt.Fprintf(os.Stderr, "benchcmp: required benchmark %q missing (old %v, new %v)\n", rq.bench, okO, okN)
			failed = true
			continue
		}
		if r := ratio(o.AllocsPerOp, n.AllocsPerOp); rq.allocs > 0 && r < rq.allocs {
			fmt.Fprintf(os.Stderr, "benchcmp: %s: allocs ratio %.2f < required %.2f (%.0f → %.0f allocs/op)\n",
				rq.bench, r, rq.allocs, o.AllocsPerOp, n.AllocsPerOp)
			failed = true
		}
		if r := ratio(o.NsPerOp, n.NsPerOp); rq.ns > 0 && r < rq.ns {
			fmt.Fprintf(os.Stderr, "benchcmp: %s: ns ratio %.2f < required %.2f (%.0f → %.0f ns/op)\n",
				rq.bench, r, rq.ns, o.NsPerOp, n.NsPerOp)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	if len(reqs)+len(ratios) > 0 {
		fmt.Println("all requirements met")
	}
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

func parseRequire(s string) requirement {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		fatal("bad --require %q: want 'Bench:allocs=2.0,ns=1.0'", s)
	}
	rq := requirement{bench: s[:i]}
	for _, part := range strings.Split(s[i+1:], ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			fatal("bad --require clause %q", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			fatal("bad --require value %q: %v", kv[1], err)
		}
		switch kv[0] {
		case "allocs":
			rq.allocs = v
		case "ns":
			rq.ns = v
		default:
			fatal("bad --require metric %q (want allocs or ns)", kv[0])
		}
	}
	return rq
}

// parseRatio parses 'BenchA:BenchB:min' — benchmark names never contain
// colons, so a plain split is unambiguous.
func parseRatio(s string) ratioGate {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		fatal("bad --ratio %q: want 'BenchA:BenchB:10'", s)
	}
	v, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || v <= 0 {
		fatal("bad --ratio minimum %q", parts[2])
	}
	return ratioGate{num: parts[0], den: parts[1], min: v}
}

func load(path string) doc {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var d doc
	if err := json.Unmarshal(b, &d); err != nil {
		fatal("%s: %v", path, err)
	}
	return d
}

func index(d doc) map[string]record {
	m := map[string]record{}
	for _, b := range d.Benchmarks {
		m[b.Name] = b
	}
	return m
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcmp: "+format+"\n", args...)
	os.Exit(1)
}
