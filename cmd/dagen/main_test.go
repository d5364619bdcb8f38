package main

import (
	"bytes"
	"strings"
	"testing"

	"aheft/internal/dag"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name        string
		args        []string
		code        int
		jobs        int    // jobs in the JSON output; 0 = not JSON
		out, errOut string // substrings of stdout and stderr
	}{
		{name: "sample", args: []string{"-kind", "sample"}, jobs: 10},
		{name: "random", args: []string{"-kind", "random", "-jobs", "60", "-ccr", "5", "-stats"}, jobs: 60, errOut: "60 jobs"},
		{name: "blast dot", args: []string{"-kind", "blast", "-jobs", "22", "-format", "dot"}, out: "digraph"},
		{name: "unknown kind", args: []string{"-kind", "nope"}, code: 1, errOut: `unknown kind "nope"`},
		{name: "unknown format", args: []string{"-format", "xml"}, code: 2, errOut: `unknown format "xml"`},
		{name: "bad flag", args: []string{"-jobs", "many"}, code: 2, errOut: "invalid value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.out) || !strings.Contains(stderr.String(), tc.errOut) {
				t.Fatalf("stdout %q lacks %q, or stderr %q lacks %q", stdout.String(), tc.out, stderr.String(), tc.errOut)
			}
			if tc.jobs > 0 {
				g, err := dag.FromJSON(stdout.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if g.Len() != tc.jobs {
					t.Fatalf("%d jobs, want %d", g.Len(), tc.jobs)
				}
			}
		})
	}
}
