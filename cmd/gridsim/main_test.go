package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		want  []string       // substrings of stdout
		trace map[string]int // events per kind in the -trace file
	}{
		{
			name: "sample",
			args: []string{"-workload", "sample", "-strategies", "heft,aheft", "-tie", "0.05"},
			want: []string{
				"heft      (one-shot): makespan      80.00",
				"aheft     (adaptive): makespan      76.00  (5.0% vs initial plan, 1/1 reschedules adopted)",
				"t=    15.0 arrival(+1) pool=  4 finished=   1       80.00 ->      76.00  adopted",
				"trace (12 events) written to",
			},
			trace: map[string]int{"job_finish": 10, "resource_arrival": 1, "reschedule": 1},
		},
		{
			name:  "blast",
			args:  []string{"-workload", "blast", "-jobs", "100", "-seed", "1", "-strategies", "aheft"},
			want:  []string{"trace (110 events) written to"},
			trace: map[string]int{"job_finish": 100, "resource_arrival": 5, "reschedule": 5},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			var out bytes.Buffer
			if err := run(append(tc.args, "-trace", path), &out); err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, out.String())
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
				var ev struct{ Kind string }
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("trace line %q: %v", line, err)
				}
				got[ev.Kind]++
			}
			for kind, n := range tc.trace {
				if got[kind] != n {
					t.Errorf("trace has %d %s events, want %d (all: %v)", got[kind], kind, n, got)
				}
			}
			if len(got) != len(tc.trace) {
				t.Errorf("trace kinds %v, want %v", got, tc.trace)
			}
		})
	}
}

func TestRunHelpAndErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(out.String(), "-trace") || strings.Contains(out.String(), "event-driven executor") {
		t.Fatalf("help text:\n%s", out.String())
	}
	if err := run([]string{"-strategies", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := run([]string{"-workload", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
