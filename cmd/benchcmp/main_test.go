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
