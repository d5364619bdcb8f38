// Command benchjson converts `go test -bench` text output into a stable
// JSON document for CI artifacts and regression diffing:
//
//	go test -run '^$' -bench 'BenchmarkKernel' -benchmem . | benchjson > BENCH_kernel.json
//
// Each benchmark line becomes one record with ns/op, B/op, allocs/op and
// any custom ReportMetric units. Under `go test -count k` a benchmark
// writes k lines; its records keep them apart by run (0, 1, …, in the
// order they ran). Non-benchmark lines (goos/goarch/pkg, PASS, ok) are
// folded into the header metadata.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Record is one benchmark result line.
type Record struct {
	Name        string             `json:"name"`
	Run         int                `json:"run,omitempty"` // how many records of Name came before
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the whole converted run.
type Doc struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run converts the `go test -bench` text on stdin into the JSON document
// on stdout. benchjson takes no arguments.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q (usage: go test -bench … | benchjson)", args)
	}
	doc := Doc{Benchmarks: []Record{}}
	runs := map[string]int{}
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				r.Run = runs[r.Name]
				runs[r.Name]++
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   100   12345 ns/op   67 B/op   8 allocs/op   3.14 extra
//
// (value, unit) pairs after the iteration count.
func parseLine(line string) (Record, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Record{}, false
	}
	name := f[0]
	// Strip the -GOMAXPROCS suffix. Go appends it only when procs != 1,
	// and benchjson runs in the same pipeline as the `go test` that
	// produced the lines, so only a suffix equal to this process's
	// GOMAXPROCS is the runner's — anything else (e.g. a sub-benchmark
	// genuinely named "layered-5000" under GOMAXPROCS=1) is part of the
	// name and stays.
	if procs := runtime.GOMAXPROCS(0); procs != 1 {
		if suffix := "-" + strconv.Itoa(procs); strings.HasSuffix(name, suffix) {
			name = strings.TrimSuffix(name, suffix)
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	r := Record{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}
