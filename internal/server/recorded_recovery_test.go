package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aheft/internal/durable"
	"aheft/internal/replay"
	"aheft/internal/server"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// TestRecordingHoldsRecoveredSubmissions: a daemon that recovers pending
// submissions starts them like any other, so its recording holds each
// one's submission before its outputs and replays identically.
func TestRecordingHoldsRecoveredSubmissions(t *testing.T) {
	dataDir, recDir := t.TempDir(), t.TempDir()
	cfg := server.Config{Shards: 1, DataDir: dataDir, WALSync: "off", SnapshotInterval: time.Hour}
	crashed, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server.WedgeUntilCrash(crashed)
	sc := workload.SampleScenario()
	body, err := wire.EncodeSubmission(&wire.Submission{Policy: "aheft", Options: wire.Options{TieWindow: 0.05},
		Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool})
	if err != nil {
		t.Fatal(err)
	}
	// Through intake, not Apply: Apply waits for the worker to start each
	// submission, and this worker is held until the crash.
	ids := []string{"wf-00000001", "wf-00000002"}
	for _, id := range ids {
		w := httptest.NewRecorder()
		crashed.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/workflows", bytes.NewReader(body)))
		if w.Code != http.StatusAccepted || !strings.Contains(w.Body.String(), id) {
			t.Fatalf("submit %s: HTTP %d %s", id, w.Code, w.Body)
		}
	}
	crashed.Crash()

	cfg.RecordDir = recDir
	srv, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if m := srv.MetricsSnapshot(); m.Completed != uint64(len(ids)) {
		t.Fatalf("recovered daemon completed %d of %d", m.Completed, len(ids))
	}

	stream, err := durable.Load(filepath.Join(recDir, wire.RecordName(0)))
	if err != nil {
		t.Fatal(err)
	}
	submitted := map[string]bool{}
	var kinds []string
	for _, r := range stream.Records {
		kinds = append(kinds, r.Kind)
		var p struct {
			Workflow string `json:"workflow"`
		}
		if err := json.Unmarshal(r.Data, &p); err != nil {
			t.Fatal(err)
		}
		switch r.Kind {
		case wire.RecSubmission:
			submitted[p.Workflow] = true
		case wire.RecDecision, wire.RecPlan, wire.RecDone:
			if !submitted[p.Workflow] {
				t.Fatalf("%s of %s recorded before its submission: %v", r.Kind, p.Workflow, kinds)
			}
		}
	}
	if len(submitted) != len(ids) {
		t.Fatalf("recording holds %d submissions, want %d: %v", len(submitted), len(ids), kinds)
	}

	res, err := replay.Run(recDir, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical() || res.Inputs != len(ids) || res.Outputs == 0 {
		t.Fatalf("replay: %d inputs, %d outputs, divergences:\n%s", res.Inputs, res.Outputs, strings.Join(res.Divergences, "\n"))
	}
}
