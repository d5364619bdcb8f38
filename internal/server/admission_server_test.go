package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"aheft/internal/grid"
	"aheft/internal/occupancy"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

func admissionDoc(srv *Server) AdmissionDoc {
	return srv.MetricsSnapshot().Admission
}

// A deep admission backlog changes nothing about how a workflow is
// planned: with nine live submissions for one shared grid queued behind a
// parked worker, each initial plan is still its own policy's, made around
// the reservations already on the grid, so no two workflows' claims
// overlap.
func TestDeepQueuePlansAroundOtherTenants(t *testing.T) {
	const queued = 9
	sc := workload.SampleScenario()
	srv, ts := newTestServer(t, Config{Shards: 1})
	t.Cleanup(func() {
		// The live workflows are never reported to completion: cancel
		// them rather than wait out the drain deadline.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = srv.Shutdown(ctx)
	})
	// An analytic blocker parks the worker, so the live submissions queue
	// up behind it and the first of them is dequeued at full depth.
	unpark := make(chan struct{})
	srv.execHook = func(wf *workflow) {
		if !wf.live {
			<-unpark
		}
	}
	registerGrid(t, ts, "g", sc)
	idA := submitShared(t, ts, "g", "alpha", sc)
	waitPlan(t, ts, idA)
	blocker, err := wire.EncodeSubmission(&wire.Submission{
		Policy: "aheft", Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, resp := submit(t, ts, blocker); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit blocker: HTTP %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(10 * time.Second); admissionDoc(srv).AdmittedByClass[wire.ClassNormal] < 2 || srv.shards[0].adm.Depth() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(unpark)
			t.Fatal("the worker never took the blocker")
		}
	}
	ids := []string{idA}
	for i := 0; i < queued; i++ {
		ids = append(ids, submitShared(t, ts, "g", fmt.Sprintf("tenant-%d", i), sc))
	}
	if d := srv.shards[0].adm.Depth(); d != queued {
		close(unpark)
		t.Fatalf("queue depth %d behind the parked worker, want %d", d, queued)
	}
	close(unpark)
	for _, id := range ids {
		waitPlan(t, ts, id)
	}

	g, _ := srv.gridLookup("g")
	rows := map[grid.ID][]occupancy.Owned{}
	for _, r := range g.ledger.Export() {
		rows[r.Resource] = append(rows[r.Resource], r)
	}
	owners, overlaps, first := map[string]bool{}, 0, ""
	for _, row := range rows {
		for i, a := range row {
			owners[a.Owner] = true
			for _, b := range row[i+1:] {
				if a.Owner != b.Owner && a.Start < b.Finish-1e-9 && b.Start < a.Finish-1e-9 {
					if overlaps++; first == "" {
						first = fmt.Sprintf("resource %d: %s job %d [%g, %g) overlaps %s job %d [%g, %g)",
							a.Resource, a.Owner, a.Job, a.Start, a.Finish, b.Owner, b.Job, b.Start, b.Finish)
					}
				}
			}
		}
	}
	if overlaps > 0 {
		t.Fatalf("%d pairs of reservations double-book the grid; first %s", overlaps, first)
	}
	if len(owners) != len(ids) {
		t.Fatalf("%d of %d workflows hold reservations", len(owners), len(ids))
	}
	// Nothing replans a workflow before its first report, so the ledger
	// above holds the initial plans themselves.
	for _, id := range ids {
		if p := waitPlan(t, ts, id); p.Generation != 1 {
			t.Fatalf("%s replanned before any report: generation %d (%s)", id, p.Generation, p.Trigger)
		}
	}
}

// Per-tenant backlog bound: with one wedged worker and TenantBacklog 2,
// the flooding tenant is rejected at its bound with a Retry-After while
// another tenant's submission is still admitted — the honest per-tenant
// 429 of the fairness layer.
func TestPerTenantBacklogRejects(t *testing.T) {
	sc := workload.SampleScenario()
	srv, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 64, TenantBacklog: 2})
	// Wedge the worker for the duration of the test body; the cleanup
	// (LIFO, so it runs before newTestServer's Shutdown) unwedges it so
	// the drain stays fast.
	unwedge := make(chan struct{})
	srv.execHook = func(*workflow) { <-unwedge }
	t.Cleanup(func() { close(unwedge) })

	submitTenant := func(tenant string) *http.Response {
		data, err := wire.EncodeSubmission(&wire.Submission{
			Policy: "aheft", Tenant: tenant,
			Options: wire.Options{TieWindow: 0.05},
			Graph:   sc.Graph, Comp: sc.Table, Pool: sc.Pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, resp := submit(t, ts, data)
		return resp
	}

	// One submission is dequeued into the wedged hook; the next two fill
	// tenant "greedy"'s backlog allowance.
	var rejected *http.Response
	for i := 0; i < 8; i++ {
		resp := submitTenant("greedy")
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("flooding tenant never hit its backlog bound")
	}
	if rejected.Header.Get("Retry-After") == "" {
		t.Fatal("per-tenant 429 without Retry-After")
	}
	if resp := submitTenant("victim"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("victim tenant rejected alongside the flood: HTTP %d", resp.StatusCode)
	}
	doc := admissionDoc(srv)
	if doc.RejectedByClass[wire.ClassNormal] == 0 {
		t.Fatalf("rejection not counted: %+v", doc.RejectedByClass)
	}
	if doc.QueueDepthByTenant["victim"] != 1 {
		t.Fatalf("victim queue depth: %+v", doc.QueueDepthByTenant)
	}
}
