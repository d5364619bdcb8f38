package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aheft/internal/server"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// record leaves a clean recording of one analytic sample workflow in dir.
func record(t *testing.T, dir string) {
	t.Helper()
	srv, err := server.Open(server.Config{Shards: 1, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.SampleScenario()
	body, err := wire.EncodeSubmission(&wire.Submission{Policy: "aheft", Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.InjectRecorded("wf-00000001", body); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRun(t *testing.T) {
	rec := t.TempDir()
	record(t, rec)
	digest := filepath.Join(t.TempDir(), "digest.txt")
	for _, tc := range []struct {
		name        string
		args        []string
		code        int
		out, errOut string // substrings of stdout and stderr
		silent      bool   // stdout must be empty
	}{
		{name: "identical", args: []string{"-dir", rec, "-digest", digest}, out: "replay: identical — 1 shards, 1 inputs re-driven"},
		{name: "quiet", args: []string{"-dir", rec, "-q"}, silent: true},
		{name: "no dir", code: 2, errOut: "-dir is required"},
		{name: "not a recording", args: []string{"-dir", t.TempDir()}, code: 2, errOut: "replay: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.out) || !strings.Contains(stderr.String(), tc.errOut) {
				t.Fatalf("stdout %q lacks %q, or stderr %q lacks %q", stdout.String(), tc.out, stderr.String(), tc.errOut)
			}
			if tc.silent && stdout.Len() > 0 {
				t.Fatalf("-q printed %q", stdout.String())
			}
		})
	}
	if b, err := os.ReadFile(digest); err != nil || len(b) == 0 {
		t.Fatalf("digest file: %d bytes, %v", len(b), err)
	}
}
