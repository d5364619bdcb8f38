package server

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"

	"aheft/internal/durable"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// TestEveryTerminalPathEndsOnce runs one workflow down each way a shard
// ends what it ran, with the journal and the flight recorder on. Each
// way must leave exactly one terminal event, journal record, recorder
// record and retention slot, give back every shared-grid claim, and keep
// completed + failed == accepted.
func TestEveryTerminalPathEndsOnce(t *testing.T) {
	sc := workload.SampleScenario()
	// how: "done" runs to completion and drains cleanly; "held" parks the
	// worker at the workflow's start until an expired drain cancels the
	// run; "resident" lets an expired drain cancel a planned live run.
	cases := []struct {
		name         string
		live, shared bool
		how, want    string
	}{
		{"analytic done", false, false, "done", StateDone},
		{"analytic failed", false, false, "held", StateFailed},
		{"live done", true, false, "done", StateDone},
		{"live failed before planning", true, false, "held", StateFailed},
		{"live force-cancelled", true, false, "resident", StateFailed},
		{"shared live done", true, true, "done", StateDone},
		{"shared live failed before planning", true, true, "held", StateFailed},
		{"shared live force-cancelled", true, true, "resident", StateFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recDir := t.TempDir()
			srv, ts := openDurable(t, t.TempDir(), Config{Shards: 1, RecordDir: recDir})
			defer ts.Close()
			var walTerminals atomic.Int32
			srv.shards[0].wal.onAppend = func(kind string) {
				if kind == wire.WALTerminal {
					walTerminals.Add(1)
				}
			}
			held := make(chan struct{})
			if tc.how == "held" {
				srv.execHook = func(*workflow) {
					close(held)
					<-srv.runCtx.Done()
				}
			}
			var id string
			switch {
			case tc.shared:
				registerGrid(t, ts, "g", sc)
				id = submitShared(t, ts, "g", "alpha", sc)
			default:
				body := encodeScenario(t, sc, "aheft", wire.Options{TieWindow: 0.05})
				if tc.live {
					body = encodeLive(t, sc, "aheft", "", wire.Options{})
				}
				var sub wire.Submitted
				if code, msg := postJSON(t, ts, "/v1/workflows", body, &sub); code != http.StatusAccepted {
					t.Fatalf("submit: HTTP %d %s", code, msg)
				}
				id = sub.ID
			}

			switch tc.how {
			case "done":
				if tc.live {
					plan := fetchPlan(t, ts, id)
					if ack := reportPlanExecution(t, ts, id, &plan); !ack.Done {
						t.Fatalf("full report did not finish the run: %+v", ack)
					}
				} else {
					waitDone(t, ts, id)
				}
				if err := srv.Shutdown(testContext(t)); err != nil {
					t.Fatalf("clean drain: %v", err)
				}
			default:
				if tc.how == "held" {
					<-held
				} else {
					fetchPlan(t, ts, id)
				}
				expired, cancel := context.WithCancel(context.Background())
				cancel()
				if err := srv.Shutdown(expired); err == nil {
					t.Fatal("expired drain returned nil")
				}
			}

			if st := getStatus(t, ts, id); st.State != tc.want {
				t.Fatalf("state %q, want %q (%s)", st.State, tc.want, st.Error)
			}
			evs := getEvents(t, ts, id)
			terminals := 0
			for _, ev := range evs {
				if ev.Kind == "done" || ev.Kind == "failed" {
					terminals++
				}
			}
			if last := evs[len(evs)-1].Kind; terminals != 1 || (last != "done" && last != "failed") {
				t.Fatalf("event log has %d terminal events and ends %q", terminals, last)
			}
			if n := walTerminals.Load(); n != 1 {
				t.Fatalf("journal saw %d terminal records", n)
			}
			stream, err := durable.Load(filepath.Join(recDir, wire.RecordName(0)))
			if err != nil {
				t.Fatal(err)
			}
			recDone := 0
			for _, r := range stream.Records {
				if r.Kind != wire.RecDone {
					continue
				}
				var fin wire.RecFinished
				if err := json.Unmarshal(r.Data, &fin); err != nil {
					t.Fatal(err)
				}
				if fin.Workflow == id {
					recDone++
					if fin.Status != tc.want {
						t.Fatalf("rec-done status %q, want %q", fin.Status, tc.want)
					}
				}
			}
			if recDone != 1 {
				t.Fatalf("recording has %d rec-done records", recDone)
			}
			srv.mu.RLock()
			retained := 0
			for _, r := range srv.retained {
				if r == id {
					retained++
				}
			}
			srv.mu.RUnlock()
			if retained != 1 {
				t.Fatalf("retained %d times", retained)
			}
			if tc.shared {
				g, _ := srv.gridLookup("g")
				if owners := g.ledger.Owners(); len(owners) != 0 || g.ledger.TransferTotal() != 0 {
					t.Fatalf("grid kept claims: owners %v, transfers %d", owners, g.ledger.TransferTotal())
				}
			}
			m := getMetrics(t, ts)
			if m.Accepted != 1 || m.Completed+m.Failed != m.Accepted || m.Inflight != 0 || m.LiveResident != 0 {
				t.Fatalf("metrics: accepted %d completed %d failed %d inflight %d resident %d",
					m.Accepted, m.Completed, m.Failed, m.Inflight, m.LiveResident)
			}
		})
	}
}

// TestAwaitReplyTakesABufferedReply: a clean drain cancels runCtx the
// moment the last resident workflow finishes, which may be the one whose
// reply is already buffered. That reply must win over the cancellation,
// however select would pick between the two.
func TestAwaitReplyTakesABufferedReply(t *testing.T) {
	drained, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Server{runCtx: drained}
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		reply := make(chan cmdResult, 1)
		reply <- cmdResult{ack: &wire.ReportAck{Done: true}}
		if res, ok := s.awaitReply(ctx, reply); !ok || res.ack == nil {
			t.Fatalf("try %d: the buffered reply lost to the drain: %+v", i, res)
		}
	}
	if res, ok := s.awaitReply(ctx, make(chan cmdResult, 1)); !ok || res.code != http.StatusServiceUnavailable {
		t.Fatalf("no reply after the drain: %+v", res)
	}
}
