package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aheft/internal/drive"
)

// invocation matches the start of a chaos command line the way the
// workflow file, README and the verify skill spell it; the first argument
// must be a flag, which is what tells a run from `go build -o bin/chaos`.
var invocation = regexp.MustCompile(`(?:bin/chaos|go run \./cmd/chaos)\s+(-.*)$`)

// invocations extracts every chaos command line of a file as its argument
// list, joining backslash continuations.
func invocations(t *testing.T, path string) [][]string {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	lines := strings.Split(string(text), "\n")
	for i := 0; i < len(lines); i++ {
		m := invocation.FindStringSubmatch(strings.TrimSpace(lines[i]))
		if m == nil {
			continue
		}
		cmd := m[1]
		for strings.HasSuffix(cmd, `\`) && i+1 < len(lines) {
			i++
			cmd = strings.TrimSuffix(cmd, `\`) + " " + strings.TrimSpace(lines[i])
		}
		out = append(out, strings.Fields(cmd))
	}
	return out
}

// parse runs args through chaos's flag set.
func parse(args []string) error {
	fs, _ := flags(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("stray arguments %q", fs.Args())
	}
	return nil
}

// TestCIInvocationsParse: every chaos command line CI runs, and every one
// README and the verify skill tell a reader to type, must parse against
// the flags chaos actually defines — removing or renaming a flag the
// crash-recovery job uses fails here instead of on GitHub a push later.
func TestCIInvocationsParse(t *testing.T) {
	for _, path := range []string{
		"../../.github/workflows/ci.yml",
		"../../README.md",
		"../../.claude/skills/verify/SKILL.md",
	} {
		cmds := invocations(t, path)
		if len(cmds) == 0 {
			t.Errorf("%s: found no chaos invocation — has the spelling changed?", path)
		}
		for _, args := range cmds {
			if err := parse(args); err != nil {
				t.Errorf("%s: chaos %s: %v", path, strings.Join(args, " "), err)
			}
		}
	}
	if err := parse([]string{"-no-such-flag"}); err == nil {
		t.Error("parse accepted an undefined flag")
	}
}

// TestSpawnRefusesAnsweredAddress: with something already answering
// /v1/healthz on the address — an orphaned daemon of an earlier run —
// spawn starts nothing and says why, instead of passing its readiness
// wait against the wrong daemon.
func TestSpawnRefusesAnsweredAddress(t *testing.T) {
	orphan := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ready"}`)
	}))
	defer orphan.Close()
	addr := strings.TrimPrefix(orphan.URL, "http://")
	o := &options{daemon: "/nonexistent/aheftd", addr: addr, walSync: "interval"}
	d, err := o.spawn(&drive.Client{Base: orphan.URL}, t.TempDir())
	if d != nil || err == nil {
		t.Fatalf("spawn over an answering address = %v, %v; want a refusal", d, err)
	}
	if !strings.Contains(err.Error(), addr+" already answers /v1/healthz") {
		t.Errorf("refusal %q does not name the address and the probe", err)
	}
}

// TestSpawnFailsWhenDaemonExits: a daemon that exits before it answers
// (as one does when its address is taken) fails the spawn at once with
// its exit status, instead of waiting out the readiness timeout.
func TestSpawnFailsWhenDaemonExits(t *testing.T) {
	exits, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false(1) on this system")
	}
	addr := freeAddr(t)
	o := &options{daemon: exits, addr: addr, walSync: "interval"}
	start := time.Now()
	d, err := o.spawn(&drive.Client{Base: "http://" + addr}, t.TempDir())
	if d != nil || err == nil || !strings.Contains(err.Error(), "exited before it was ready") {
		t.Fatalf("spawn of a daemon that exits = %v, %v; want an exited-before-ready error", d, err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("spawn took %v to notice the exit", waited)
	}
}

// freeAddr picks a free loopback address by bind-and-close.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestRunRejectsIncompleteCommandLine: no daemon, or too few workflows to
// spread over the shared grid and the mid-report third, is a usage error.
func TestRunRejectsIncompleteCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-daemon", "bin/aheftd", "-workflows", "9"},
		{"-daemon", "bin/aheftd", "stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("chaos %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}

// TestScrapeDecodesFresh: two /metrics documents in sequence — the second
// without the omitempty maps the first carried — must not bleed into each
// other (the stale-entries trap chaos reports fell into), and a failed
// scrape is an error, not an empty document.
func TestScrapeDecodesFresh(t *testing.T) {
	docs := []string{
		`{"live_resident":120,"trace_stage_ms":{"plan":{"count":3}},
		  "admission":{"queue_depth_by_tenant":{"alice":4}}}`,
		`{"live_resident":0,"reports_duplicate":36}`,
	}
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := int(calls.Add(1)); n <= len(docs) {
			fmt.Fprint(w, docs[n-1])
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()
	c := &drive.Client{Base: ts.URL, HTTP: ts.Client()}
	before, err := scrape(c)
	if err != nil || before.LiveResident != 120 ||
		len(before.TraceStageMs) != 1 || before.Admission.QueueDepthByTenant["alice"] != 4 {
		t.Fatalf("first scrape = %+v, %v", before, err)
	}
	after, err := scrape(c)
	if err != nil || after.LiveResident != 0 || after.ReportsDuplicate != 36 {
		t.Fatalf("second scrape = %+v, %v", after, err)
	}
	if len(after.TraceStageMs) != 0 || len(after.Admission.QueueDepthByTenant) != 0 {
		t.Errorf("second scrape kept the first one's entries: %v %v",
			after.TraceStageMs, after.Admission.QueueDepthByTenant)
	}
	if _, err := scrape(c); err == nil || !strings.Contains(err.Error(), "HTTP 503: draining") {
		t.Errorf("failed scrape = %v, want the daemon's status and text", err)
	}
}
