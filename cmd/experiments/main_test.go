package main

import (
	"bytes"
	"strings"
	"testing"

	"aheft/internal/experiment"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name        string
		args        []string
		code        int
		out, errOut string // substrings of stdout and stderr
	}{
		{name: "list", args: []string{"-list"}, out: strings.Join(experiment.Order, "\n") + "\n"},
		{name: "fig5", args: []string{"-exp", "fig5", "-samples", "1"}, out: "(fig5 in "},
		{name: "fig5 csv", args: []string{"-exp", " fig5", "-samples", "1", "-format", "csv"}, out: "# fig5 — "},
		{name: "unknown experiment", args: []string{"-exp", "fig5,nope"}, code: 2, errOut: `unknown experiment "nope"`},
		{name: "bad flag", args: []string{"-samples", "x"}, code: 2, errOut: "invalid value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.out) || !strings.Contains(stderr.String(), tc.errOut) {
				t.Fatalf("stdout %q lacks %q, or stderr %q lacks %q", stdout.String(), tc.out, stderr.String(), tc.errOut)
			}
		})
	}
}
