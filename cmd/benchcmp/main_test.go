package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldDoc := write("old.json", `{"benchmarks":[
		{"name":"BenchmarkA","ns_per_op":1000,"allocs_per_op":100},
		{"name":"BenchmarkB","ns_per_op":50,"allocs_per_op":0}]}`)
	newDoc := write("new.json", `{"benchmarks":[
		{"name":"BenchmarkA","ns_per_op":500,"allocs_per_op":20},
		{"name":"BenchmarkB","ns_per_op":100,"allocs_per_op":0},
		{"name":"BenchmarkC","ns_per_op":7,"allocs_per_op":1}]}`)
	bad := write("bad.json", `{`)
	for _, tc := range []struct {
		name    string
		args    []string
		want    []string // substrings of stdout
		notWant []string
		wantErr string
	}{
		{
			name: "table",
			args: []string{oldDoc, newDoc},
			want: []string{"BenchmarkA", "2.00", "5.00", "BenchmarkB", "0.50", "BenchmarkC", "new"},
		},
		{
			name:    "only",
			args:    []string{oldDoc, newDoc, "--only", "BenchmarkC"},
			want:    []string{"BenchmarkC"},
			notWant: []string{"BenchmarkA"},
		},
		{
			name: "require met",
			args: []string{oldDoc, newDoc, "--require", "BenchmarkA:allocs=5,ns=2"},
			want: []string{"all requirements met"},
		},
		{
			name:    "require missed",
			args:    []string{oldDoc, newDoc, "--require=BenchmarkB:ns=1"},
			wantErr: "BenchmarkB: ns ratio 0.50 < required 1.00",
		},
		{
			name: "ratio met",
			args: []string{oldDoc, newDoc, "--ratio", "BenchmarkB:BenchmarkC:10"},
			want: []string{"ratio BenchmarkB / BenchmarkC = 14.29x", "all requirements met"},
		},
		{
			name:    "ratio missed",
			args:    []string{oldDoc, newDoc, "--ratio=BenchmarkC:BenchmarkA:1"},
			wantErr: "ratio BenchmarkC / BenchmarkA = 0.01 < required 1.00",
		},
		{
			name:    "required benchmark absent",
			args:    []string{oldDoc, newDoc, "--require", "BenchmarkC:ns=1"},
			wantErr: `required benchmark "BenchmarkC" missing`,
		},
		{name: "one file", args: []string{oldDoc}, wantErr: "usage"},
		{name: "missing value", args: []string{oldDoc, newDoc, "--ratio"}, wantErr: "missing --ratio value"},
		{name: "bad require", args: []string{oldDoc, newDoc, "--require", "BenchmarkA:speed=2"}, wantErr: "bad --require metric"},
		{name: "bad ratio", args: []string{oldDoc, newDoc, "--ratio", "A:B"}, wantErr: "bad --ratio"},
		{name: "unreadable doc", args: []string{oldDoc, bad}, wantErr: "bad.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, out.String())
				}
			}
			for _, w := range tc.notWant {
				if strings.Contains(out.String(), w) {
					t.Errorf("output has %q:\n%s", w, out.String())
				}
			}
		})
	}
}

// TestGatesJudgeTheMedian: a document of k runs of each benchmark is gated
// on the median of the per-run ratios, and the gate prints their spread.
// Run i of the numerator pairs with run i of the denominator, so one slow
// run on either side moves one ratio, not the verdict.
func TestGatesJudgeTheMedian(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldDoc := write("old.json", `{"benchmarks":[{"name":"BenchmarkX/append","ns_per_op":900,"allocs_per_op":9}]}`)
	// Ratios oracle/append: 250/100 = 2.5, 320/100 = 3.2, 340/100 = 3.4.
	newDoc := write("new.json", `{"benchmarks":[
		{"name":"BenchmarkX/oracle","ns_per_op":250},{"name":"BenchmarkX/append","ns_per_op":100,"allocs_per_op":3},
		{"name":"BenchmarkX/oracle","run":1,"ns_per_op":320},{"name":"BenchmarkX/append","run":1,"ns_per_op":100,"allocs_per_op":3},
		{"name":"BenchmarkX/oracle","run":2,"ns_per_op":340},{"name":"BenchmarkX/append","run":2,"ns_per_op":100,"allocs_per_op":4}]}`)
	lopsided := write("lopsided.json", `{"benchmarks":[
		{"name":"BenchmarkX/oracle","ns_per_op":250},{"name":"BenchmarkX/append","ns_per_op":100},
		{"name":"BenchmarkX/oracle","run":1,"ns_per_op":600}]}`)
	for _, tc := range []struct {
		name    string
		args    []string
		want    []string
		wantErr string
	}{
		{
			name: "one run below the bound, the median above",
			args: []string{oldDoc, newDoc, "--ratio", "BenchmarkX/oracle:BenchmarkX/append:3"},
			want: []string{
				"ratio BenchmarkX/oracle / BenchmarkX/append = 3.20x (>= 3.00; min 2.50, median 3.20, max 3.40 over 3 runs)",
				"all requirements met",
			},
		},
		{
			name:    "the median below the bound",
			args:    []string{oldDoc, newDoc, "--ratio", "BenchmarkX/oracle:BenchmarkX/append:3.3"},
			wantErr: "ratio BenchmarkX/oracle / BenchmarkX/append = 3.20 < required 3.30 (min 2.50, median 3.20, max 3.40 over 3 runs)",
		},
		{
			name: "require against each new run",
			args: []string{oldDoc, newDoc, "--require", "BenchmarkX/append:allocs=3,ns=9"},
			want: []string{
				"BenchmarkX/append: allocs ratio 3.00x (>= 3.00; min 2.25, median 3.00, max 3.00 over 3 runs)",
				"BenchmarkX/append: ns ratio 9.00x (>= 9.00; min 9.00, median 9.00, max 9.00 over 3 runs)",
			},
		},
		{
			name: "the table shows medians",
			args: []string{oldDoc, newDoc},
			want: []string{"BenchmarkX/oracle", "320", "BenchmarkX/append", "100", "9.00", "3.00"},
		},
		{
			name:    "unpaired runs",
			args:    []string{oldDoc, lopsided, "--ratio", "BenchmarkX/oracle:BenchmarkX/append:2"},
			wantErr: "ratio BenchmarkX/oracle / BenchmarkX/append: 2 runs against 1",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, out.String())
				}
			}
			if rows := strings.Count(out.String(), "BenchmarkX/oracle "); tc.name == "the table shows medians" && rows != 1 {
				t.Errorf("%d rows for BenchmarkX/oracle, want 1:\n%s", rows, out.String())
			}
		})
	}
}
