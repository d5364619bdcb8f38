package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"aheft/internal/durable"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// TestGridLoggedBeforeVisible: a grid is journalled and recorded before
// anything can name it. The test stalls the grid's journal append and,
// meanwhile, submits a live workflow that names the grid from another
// goroutine. That submission must be refused, the grid not being there
// yet; one accepted in that window would be started, and recorded, ahead
// of the grid it plans on, and its recording would not replay.
func TestGridLoggedBeforeVisible(t *testing.T) {
	sc := workload.SampleScenario()
	recDir := t.TempDir()
	srv, ts := openDurable(t, t.TempDir(), Config{Shards: 1, RecordDir: recDir, WALSync: "off", SnapshotInterval: time.Hour})
	defer ts.Close()
	body, err := wire.EncodeSubmission(&wire.Submission{
		Mode: wire.ModeLive, Tenant: "early", Policy: "aheft",
		Graph: sc.Graph, Comp: sc.Table, SharedGrid: "g",
	})
	if err != nil {
		t.Fatal(err)
	}
	named := make(chan int, 1)
	w := srv.shards[0].wal
	w.mu.Lock()
	w.onAppend = func(kind string) {
		if kind != wire.WALGrid {
			return
		}
		go func() {
			code := 0
			if resp, err := ts.Client().Post(ts.URL+"/v1/workflows", "application/json", bytes.NewReader(body)); err == nil {
				code = resp.StatusCode
				resp.Body.Close()
			}
			named <- code
		}()
		// Wait for the answer while the append stalls; one held back
		// behind it is judged once it comes.
		select {
		case code := <-named:
			named <- code
		case <-time.After(2 * time.Second):
		}
	}
	w.mu.Unlock()

	registerGrid(t, ts, "g", sc)
	if code := <-named; code != http.StatusBadRequest {
		t.Fatalf("a submission naming the grid while its journal record was being written: HTTP %d, want 400", code)
	}
	id := submitShared(t, ts, "g", "late", sc)
	waitPlan(t, ts, id)
	srv.Crash()

	stream, err := durable.Load(filepath.Join(recDir, wire.RecordName(0)))
	if err != nil {
		t.Fatal(err)
	}
	var inputs []string
	for _, r := range stream.Records {
		var in wire.RecBody
		if err := json.Unmarshal(r.Data, &in); err != nil {
			t.Fatal(err)
		}
		switch r.Kind {
		case wire.RecGrid:
			inputs = append(inputs, in.Grid)
		case wire.RecSubmission:
			inputs = append(inputs, in.Workflow)
		}
	}
	if len(inputs) != 2 || inputs[0] != "g" || inputs[1] != id {
		t.Fatalf("recorded inputs %v, want [g %s]", inputs, id)
	}
}

// TestApplyRefusesWithoutTrace: an input Apply cannot make take effect
// returns an error and leaves no workflow registered and no record in
// either log.
func TestApplyRefusesWithoutTrace(t *testing.T) {
	srv, ts := openDurable(t, t.TempDir(), Config{Shards: 2, RecordDir: t.TempDir(), WALSync: "off", SnapshotInterval: time.Hour})
	ts.Close()
	defer srv.Shutdown(testContext(t))
	sc := workload.SampleScenario()
	body := encodeScenario(t, sc, "aheft", wire.Options{})
	if err := srv.Apply(wire.RecSubmission, wire.RecBody{Workflow: "wf-00000001", Body: body}); err != nil {
		t.Fatal(err)
	}
	shared, err := wire.EncodeSubmission(&wire.Submission{
		Mode: wire.ModeLive, Graph: sc.Graph, Comp: sc.Table, SharedGrid: "nowhere",
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := wire.EncodeReport(&wire.Report{Events: []wire.ReportEvent{{Kind: wire.ReportJobStarted, Job: 0, Resource: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	registered := func() int {
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		return len(srv.wfs)
	}
	for _, tc := range []struct {
		name, kind string
		in         wire.RecBody
	}{
		{"duplicate workflow ID", wire.RecSubmission, wire.RecBody{Workflow: "wf-00000001", Body: body}},
		{"submission naming an unknown grid", wire.RecSubmission, wire.RecBody{Workflow: "wf-00000002", Body: shared}},
		{"unknown record kind", "rec-cancel", wire.RecBody{Workflow: "wf-00000003", Body: body}},
		{"report to an unknown workflow", wire.RecReport, wire.RecBody{Workflow: "wf-00000004", Body: report}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, n := srv.MetricsSnapshot(), registered()
			if err := srv.Apply(tc.kind, tc.in); err == nil {
				t.Fatal("Apply took it")
			}
			after := srv.MetricsSnapshot()
			if registered() != n || after.RecorderRecords != before.RecorderRecords || after.WALAppends != before.WALAppends {
				t.Fatalf("left behind %d workflows, %d recorder records, %d journal records",
					registered()-n, after.RecorderRecords-before.RecorderRecords, after.WALAppends-before.WALAppends)
			}
		})
	}
}
