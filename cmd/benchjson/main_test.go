package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	// The -GOMAXPROCS suffix benchjson strips is this process's own.
	procs := ""
	if p := runtime.GOMAXPROCS(0); p != 1 {
		procs = "-" + strconv.Itoa(p)
	}
	for _, tc := range []struct {
		name    string
		args    []string
		in      string
		want    Doc
		wantErr string
	}{
		{
			name: "header and records",
			in: "goos: linux\ngoarch: amd64\npkg: aheft\ncpu: Some CPU\n" +
				"BenchmarkA" + procs + "   100   1234 ns/op   56 B/op   7 allocs/op   1705 wf/s\n" +
				"BenchmarkB/v=5" + procs + "   3   9.5 ns/op\nPASS\nok  \taheft\t1.2s\n",
			want: Doc{GOOS: "linux", GOARCH: "amd64", Pkg: "aheft", CPU: "Some CPU", Benchmarks: []Record{
				{Name: "BenchmarkA", Iterations: 100, NsPerOp: 1234, BytesPerOp: 56, AllocsPerOp: 7, Metrics: map[string]float64{"wf/s": 1705}},
				{Name: "BenchmarkB/v=5", Iterations: 3, NsPerOp: 9.5},
			}},
		},
		{
			name: "runs of one benchmark are kept apart",
			in: "BenchmarkA/x" + procs + "   10   100 ns/op\nBenchmarkA/y" + procs + "   10   300 ns/op\n" +
				"BenchmarkA/x" + procs + "   10   120 ns/op\nBenchmarkA/y" + procs + "   10   310 ns/op\n",
			want: Doc{Benchmarks: []Record{
				{Name: "BenchmarkA/x", Iterations: 10, NsPerOp: 100},
				{Name: "BenchmarkA/y", Iterations: 10, NsPerOp: 300},
				{Name: "BenchmarkA/x", Run: 1, Iterations: 10, NsPerOp: 120},
				{Name: "BenchmarkA/y", Run: 1, Iterations: 10, NsPerOp: 310},
			}},
		},
		{
			name: "malformed lines are skipped",
			in:   "BenchmarkShort 1\nBenchmarkX notanumber 5 ns/op\n",
			want: Doc{Benchmarks: []Record{}},
		},
		{name: "arguments rejected", args: []string{"x"}, wantErr: "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, strings.NewReader(tc.in), &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got Doc
			if err := json.Unmarshal(out.Bytes(), &got); err != nil {
				t.Fatalf("output is not JSON: %v\n%s", err, out.String())
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("doc = %+v\nwant  %+v", got, tc.want)
			}
		})
	}
}
