package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"aheft/internal/server"
)

// TestCIInvocationsParse: every overload command line CI runs, and every
// one README and the verify skill tell a reader to type, must parse
// against the flags overload defines.
func TestCIInvocationsParse(t *testing.T) {
	invocation := regexp.MustCompile(`(?:bin/overload|go run \./cmd/overload)\s+(-.*)$`)
	for _, path := range []string{
		"../../.github/workflows/ci.yml",
		"../../README.md",
		"../../.claude/skills/verify/SKILL.md",
	} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, line := range strings.Split(string(text), "\n") {
			m := invocation.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			found++
			fs, _, _ := flags(io.Discard)
			if err := fs.Parse(strings.Fields(m[1])); err != nil || fs.NArg() > 0 {
				t.Errorf("%s: overload %s: %v %q", path, m[1], err, fs.Args())
			}
		}
		if found == 0 {
			t.Errorf("%s: found no overload invocation — has the spelling changed?", path)
		}
	}
}

// TestViolations: one row per gate, once met and once violated.
func TestViolations(t *testing.T) {
	met := func() *Report {
		return &Report{CalibP99: 100, OverP99: 300, DegradeFactor: 3, ServerMetrics: server.MetricsDoc{
			Admission: server.AdmissionDoc{
				FastPathByClass: map[string]uint64{"low": 2}, UpgradedByClass: map[string]uint64{"low": 1},
				FastInitialMs: server.LatencyMs{Count: 2, P99: 4.99}, FullInitialMs: server.LatencyMs{Count: 9, P99: 5},
			},
		}}
	}
	if got := violations(met()); len(got) != 0 {
		t.Fatalf("every gate met, yet violated: %q", got)
	}
	for _, tc := range []struct {
		name string
		edit func(*Report)
		want string
	}{
		{"degradation bound", func(r *Report) { r.OverP99, r.DegradeFactor = 301, 3.01 },
			"victim p99 makespan degraded 3.01× under the flood, bound 3.0×"},
		{"phase without victims", func(r *Report) { r.OverP99 = 0 },
			"a phase produced no victim makespan"},
		{"fast path", func(r *Report) { r.ServerMetrics.Admission.FastPathByClass = nil },
			"the flood never tripped the fast path"},
		{"upgrade", func(r *Report) { r.ServerMetrics.Admission.UpgradedByClass = nil },
			"no fast-path admission was upgraded to a full plan"},
		{"fast plan is fast", func(r *Report) { r.ServerMetrics.Admission.FastInitialMs.P99 = 5 },
			"fast-path initial-plan p99 5.00ms not below full-path 5.00ms"},
		{"reservations held at the end", func(r *Report) { r.ServerMetrics.TransferReservations = 3 },
			"daemon still holds 0 compute + 3 transfer reservations after all rounds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := met()
			tc.edit(rep)
			got := violations(rep)
			if len(got) != 1 || !strings.HasPrefix(got[0], tc.want) {
				t.Errorf("violations = %q, want one starting %q", got, tc.want)
			}
		})
	}
}
