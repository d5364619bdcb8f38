package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// httpJSON issues one request and decodes the JSON reply.
func httpJSON(t *testing.T, client *http.Client, method, url string, body []byte, v any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func registerGrid(t *testing.T, ts *httptest.Server, name string, sc *workload.Scenario) {
	t.Helper()
	body, err := wire.EncodeGridSpec(&wire.GridSpec{Pool: sc.Pool})
	if err != nil {
		t.Fatal(err)
	}
	var st wire.GridStatus
	if code := httpJSON(t, ts.Client(), http.MethodPut, ts.URL+"/v1/grids/"+name, body, &st); code != http.StatusCreated {
		t.Fatalf("PUT grid: HTTP %d", code)
	}
	if st.Name != name || st.Resources != sc.Pool.Size() || st.Reservations != 0 {
		t.Fatalf("fresh grid status: %+v", st)
	}
}

func gridStatus(t *testing.T, ts *httptest.Server, name string) wire.GridStatus {
	t.Helper()
	var st wire.GridStatus
	if code := httpJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/grids/"+name, nil, &st); code != http.StatusOK {
		t.Fatalf("GET grid %s: HTTP %d", name, code)
	}
	return st
}

// submitShared submits one live workflow against the named grid.
func submitShared(t *testing.T, ts *httptest.Server, gridName, tenant string, sc *workload.Scenario) string {
	t.Helper()
	body, err := wire.EncodeSubmission(&wire.Submission{
		Name: tenant, Mode: wire.ModeLive, Tenant: tenant, Policy: "aheft",
		Graph: sc.Graph, Comp: sc.Table, SharedGrid: gridName,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sub wire.Submitted
	if code := httpJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/workflows", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit shared: HTTP %d", code)
	}
	return sub.ID
}

// waitPlan polls until the live workflow is planned.
func waitPlan(t *testing.T, ts *httptest.Server, id string) *wire.Plan {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var plan wire.Plan
		code := httpJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/workflows/"+id+"/plan", nil, &plan)
		if code == http.StatusOK {
			return &plan
		}
		if time.Now().After(deadline) {
			t.Fatalf("workflow %s never planned (HTTP %d)", id, code)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reportPlanExecution replays the plan faithfully as one report batch
// (starts and finishes chronologically interleaved) and returns the ack.
func reportPlanExecution(t *testing.T, ts *httptest.Server, id string, plan *wire.Plan) *wire.ReportAck {
	t.Helper()
	events := make([]wire.ReportEvent, 0, 2*len(plan.Assignments))
	for _, a := range plan.Assignments {
		events = append(events,
			wire.ReportEvent{Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource},
			wire.ReportEvent{Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Resource: a.Resource, Duration: a.Finish - a.Start},
		)
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		return events[i].Kind == wire.ReportJobStarted && events[j].Kind == wire.ReportJobFinished
	})
	body, err := wire.EncodeReport(&wire.Report{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.ReportAck
	if code := httpJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/workflows/"+id+"/report", body, &ack); code != http.StatusOK {
		t.Fatalf("report: HTTP %d", code)
	}
	return &ack
}

func TestGridEndpoints(t *testing.T) {
	srv := New(Config{Shards: 2})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sc := workload.SampleScenario()
	registerGrid(t, ts, "cluster-a", sc)

	var errDoc errorDoc
	spec, _ := wire.EncodeGridSpec(&wire.GridSpec{Pool: sc.Pool})
	if code := httpJSON(t, ts.Client(), http.MethodPut, ts.URL+"/v1/grids/cluster-a", spec, &errDoc); code != http.StatusConflict {
		t.Fatalf("duplicate grid: HTTP %d", code)
	}
	if code := httpJSON(t, ts.Client(), http.MethodPut, ts.URL+"/v1/grids/bad%20name", spec, &errDoc); code != http.StatusBadRequest {
		t.Fatalf("invalid name: HTTP %d", code)
	}
	if code := httpJSON(t, ts.Client(), http.MethodPut, ts.URL+"/v1/grids/empty", []byte(`{"v":1}`), &errDoc); code != http.StatusBadRequest {
		t.Fatalf("empty spec: HTTP %d", code)
	}
	if code := httpJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/grids/nope", nil, &errDoc); code != http.StatusNotFound {
		t.Fatalf("unknown grid: HTTP %d", code)
	}
	var list []wire.GridStatus
	if code := httpJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/grids", nil, &list); code != http.StatusOK || len(list) != 1 || list[0].Name != "cluster-a" {
		t.Fatalf("grid list: HTTP %d, %+v", code, list)
	}

	// A submission naming an unregistered grid is rejected with guidance.
	body, err := wire.EncodeSubmission(&wire.Submission{
		Mode: wire.ModeLive, Graph: sc.Graph, Comp: sc.Table, SharedGrid: "nope",
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := httpJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/workflows", body, &errDoc); code != http.StatusBadRequest ||
		!strings.Contains(errDoc.Error, "unknown shared grid") {
		t.Fatalf("unknown grid submission: HTTP %d %q", code, errDoc.Error)
	}
	// An estimator table not covering the grid's universe is rejected.
	small, err := workload.RandomScenario(
		workload.RandomParams{Jobs: 5, CCR: 1, OutDegree: 0.3, Beta: 0.5},
		workload.GridParams{InitialResources: 2}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	body, err = wire.EncodeSubmission(&wire.Submission{
		Mode: wire.ModeLive, Graph: small.Graph, Comp: small.Table, SharedGrid: "cluster-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := httpJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/workflows", body, &errDoc); code != http.StatusBadRequest ||
		!strings.Contains(errDoc.Error, "grid") {
		t.Fatalf("mismatched table: HTTP %d %q", code, errDoc.Error)
	}
}

// TestSharedWorkflowsContendAndRelease: two workflows on one grid plan
// around each other (status shows the aggregate), what-if answers count
// the foreign occupancy, and a completed run's reservations drain without
// a leak — including when the retention cap evicts the terminal record.
func TestSharedWorkflowsContendAndRelease(t *testing.T) {
	srv := New(Config{Shards: 2, MaxRetained: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sc := workload.SampleScenario()
	registerGrid(t, ts, "g", sc)

	idA := submitShared(t, ts, "g", "alpha", sc)
	planA := waitPlan(t, ts, idA)
	idB := submitShared(t, ts, "g", "beta", sc)
	planB := waitPlan(t, ts, idB)
	n := sc.Graph.Len()

	st := gridStatus(t, ts, "g")
	if st.Attached != 2 || st.Reservations != 2*n {
		t.Fatalf("grid with two tenants: %+v", st)
	}
	var wfst wire.Status
	if code := httpJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/workflows/"+idB, nil, &wfst); code != http.StatusOK {
		t.Fatalf("status: HTTP %d", code)
	}
	if wfst.Grid != "g" || wfst.Resources != sc.Pool.Size() {
		t.Fatalf("shared status: %+v", wfst)
	}
	// B planned around A's reservations: same workflow, same estimates,
	// but the grid was half-occupied, so B cannot beat A's plan.
	if planB.Makespan < planA.Makespan {
		t.Fatalf("contended plan %g beats uncontended %g", planB.Makespan, planA.Makespan)
	}
	// The what-if answer is against the aggregate occupancy.
	var doc wire.WhatIfDoc
	if code := httpJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/workflows/"+idB+"/whatif", []byte(`{}`), &doc); code != http.StatusOK {
		t.Fatalf("whatif: HTTP %d", code)
	}
	if doc.ForeignReservations != n {
		t.Fatalf("whatif foreign reservations = %d, want %d", doc.ForeignReservations, n)
	}

	// A finishes: its reservations drain job by job; the survivor B is
	// poked with a contention trigger (visible in its event count and,
	// when it adopts, its generation).
	ackA := reportPlanExecution(t, ts, idA, planA)
	if !ackA.Done {
		t.Fatalf("A not done: %+v", ackA)
	}
	st = gridStatus(t, ts, "g")
	if st.Attached != 1 || st.Reservations != n {
		t.Fatalf("grid after A finished: %+v", st)
	}
	if got := st.Owners; len(got) != 1 || got[0].Workflow != idB {
		t.Fatalf("owners after A finished: %+v", got)
	}

	// B refetches its plan: the contention reevaluation after A's finishes
	// must have adopted the freed capacity (the grid is empty again, so
	// B's plan returns to the uncontended makespan).
	planB2 := waitPlan(t, ts, idB)
	if planB2.Generation < 2 || planB2.Trigger != "contention" {
		t.Fatalf("survivor plan after release: gen=%d trigger=%q", planB2.Generation, planB2.Trigger)
	}
	if planB2.Makespan != planA.Makespan {
		t.Fatalf("freed plan %g, uncontended plan %g", planB2.Makespan, planA.Makespan)
	}
	ackB := reportPlanExecution(t, ts, idB, planB2)
	if !ackB.Done {
		t.Fatalf("B not done: %+v", ackB)
	}
	st = gridStatus(t, ts, "g")
	if st.Attached != 0 || st.Reservations != 0 {
		t.Fatalf("leaked reservations after both finished: %+v", st)
	}

	// MaxRetained=1: B's completion evicted A's terminal record; eviction
	// must not resurrect or leak grid state.
	if code := httpJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/workflows/"+idA, nil, &errorDoc{}); code != http.StatusNotFound {
		t.Fatalf("A should be evicted: HTTP %d", code)
	}
	m := srv.MetricsSnapshot()
	if m.SharedGrids != 1 || m.Reservations != 0 || m.Evicted == 0 {
		t.Fatalf("metrics after eviction: %+v", m)
	}
	if m.ReschedulesContention == 0 {
		t.Fatalf("no contention reschedule recorded: %+v", m)
	}
}

// TestSharedReservationReleaseOnForceCancel: the drain deadline
// force-cancels resident live workflows; their reservations must not
// outlive them.
func TestSharedReservationReleaseOnForceCancel(t *testing.T) {
	srv := New(Config{Shards: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sc := workload.SampleScenario()
	registerGrid(t, ts, "g", sc)
	idA := submitShared(t, ts, "g", "alpha", sc)
	waitPlan(t, ts, idA)
	idB := submitShared(t, ts, "g", "beta", sc)
	waitPlan(t, ts, idB)
	if st := gridStatus(t, ts, "g"); st.Reservations != 2*sc.Graph.Len() {
		t.Fatalf("pre-drain grid: %+v", st)
	}

	// An already-expired drain context forces the cancel path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("expired drain returned nil")
	}
	if st := gridStatus(t, ts, "g"); st.Attached != 0 || st.Reservations != 0 {
		t.Fatalf("force-cancel leaked reservations: %+v", st)
	}
	for _, id := range []string{idA, idB} {
		var wfst wire.Status
		if code := httpJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/workflows/"+id, nil, &wfst); code != http.StatusOK || wfst.State != StateFailed {
			t.Fatalf("%s after force-cancel: HTTP %d state %q", id, code, wfst.State)
		}
	}
	if m := srv.MetricsSnapshot(); m.Reservations != 0 || m.LiveResident != 0 {
		t.Fatalf("post-drain metrics: %+v", m)
	}
}

// TestSharedGridContentionBeatsOblivious is the shared-grid acceptance
// test: on a 2-tenant BLAST/WIEN2K mix enacted together on one grid (a
// resource runs one job at a time across tenants, 20% runtime noise, 30%
// arrival churn), contention-aware adaptive planning must beat the
// isolated-planning baseline on mean makespan, every tenant class must
// see at least one cross-workflow (contention-triggered) reschedule, and
// the grids must drain with zero leaked compute or transfer reservations.
func TestSharedGridContentionBeatsOblivious(t *testing.T) {
	if testing.Short() {
		t.Skip("shared-grid acceptance test skipped in -short mode")
	}
	srv := New(Config{Shards: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const rounds = 4
	gp := workload.GridParams{InitialResources: 4, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 2}
	r := rng.New(0x67e1d5eed)
	type classAgg struct {
		adaptive, oblivious  float64
		contention, eachRuns int
	}
	agg := map[string]*classAgg{"blast": {}, "wien2k": {}}
	for round := 0; round < rounds; round++ {
		bl, err := workload.BlastScenario(workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}, gp, r)
		if err != nil {
			t.Fatal(err)
		}
		wn, err := workload.Wien2kScenario(workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}, gp, r)
		if err != nil {
			t.Fatal(err)
		}
		out, err := drive.Run(context.Background(), drive.Config{
			Client: drive.Client{Base: ts.URL, HTTP: ts.Client()},
			Grid:   fmt.Sprintf("grid-%d", round),
			Pool:   bl.Pool,
			Noise:  0.2,
			Churn:  0.3,
			Seed:   uint64(round)*1000 + 7,
		}, []drive.Tenant{
			{Name: "blast", Scenario: bl, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2}},
			{Name: "wien2k", Scenario: wn, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2}},
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if out.FinalReservations != 0 || out.FinalTransferReservations != 0 {
			t.Fatalf("round %d leaked %d compute + %d transfer reservations",
				round, out.FinalReservations, out.FinalTransferReservations)
		}
		for _, to := range out.Tenants {
			if to.DaemonMakespan != to.AdaptiveMakespan {
				t.Fatalf("round %d %s: daemon says %g, simulation measured %g",
					round, to.Name, to.DaemonMakespan, to.AdaptiveMakespan)
			}
			a := agg[to.Name]
			a.adaptive += to.AdaptiveMakespan
			a.oblivious += to.BaselineMakespan
			a.contention += to.ByTrigger["contention"]
			a.eachRuns++
			t.Logf("round %d %-7s jobs=%d aware=%.1f oblivious=%.1f delta=%+.1f%% reschedules=%d (contention=%d variance=%d arrival=%d) gen=%d",
				round, to.Name, to.Jobs, to.AdaptiveMakespan, to.BaselineMakespan, 100*(to.BaselineMakespan-to.AdaptiveMakespan)/to.BaselineMakespan,
				to.Reschedules, to.ByTrigger["contention"], to.ByTrigger["variance"], to.ByTrigger["arrival"], to.Generation)
		}
	}
	for class, a := range agg {
		if a.eachRuns != rounds {
			t.Fatalf("%s ran %d rounds", class, a.eachRuns)
		}
		if a.contention == 0 {
			t.Fatalf("no cross-workflow (contention) reschedule for class %s across %d rounds", class, rounds)
		}
		mean := a.adaptive / float64(rounds)
		base := a.oblivious / float64(rounds)
		if mean > base {
			t.Fatalf("%s: contention-aware mean %.1f worse than oblivious baseline %.1f", class, mean, base)
		}
		t.Logf("%s: mean aware %.1f vs oblivious %.1f (%.1f%% better), %d contention reschedules",
			class, mean, base, 100*(base-mean)/base, a.contention)
	}

	m := srv.MetricsSnapshot()
	if m.SharedGrids != rounds || m.Reservations != 0 || m.TransferReservations != 0 {
		t.Fatalf("grid gauges: %+v", m)
	}
	if m.ReschedulesContention == 0 || m.EventsDropped != 0 {
		t.Fatalf("loop metrics: %+v", m)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := srv.MetricsSnapshot(); got.Completed != 2*rounds || got.Failed != 0 {
		t.Fatalf("post-drain: completed=%d failed=%d", got.Completed, got.Failed)
	}
}

// TestAdoptionsPublishAlike drives an adoption down each of the two
// roads a live replan takes — a report (the sample's r4 joining at
// t=15) and another workflow's freed capacity (contention) — and checks that they leave the same trace: every adopted
// decision event is followed by a "plan" event carrying its trigger and a
// newer generation before anything else is logged, the generations count
// the adoptions, and /metrics counts each adoption once under its trigger.
func TestAdoptionsPublishAlike(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 1})
	t.Cleanup(func() {
		// The sample workflow stays live: cancel it rather than wait out
		// the drain deadline.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = srv.Shutdown(ctx)
	})
	sc := workload.SampleScenario()
	registerGrid(t, ts, "g", sc)
	idA := submitShared(t, ts, "g", "alpha", sc)
	waitPlan(t, ts, idA)
	idB := submitShared(t, ts, "g", "beta", sc)
	waitPlan(t, ts, idB)
	var p wire.Submitted
	if code, msg := postJSON(t, ts, "/v1/workflows", encodeLive(t, sc, "aheft", "acme", wire.Options{TieWindow: 0.05}), &p); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d %s", code, msg)
	}
	evs := append(replayPrefix(fetchPlan(t, ts, p.ID), 15), wire.ReportEvent{Kind: wire.ReportResourceJoin, Time: 15, Resource: 3})
	if code, msg := postJSON(t, ts, "/v1/workflows/"+p.ID+"/report", encodeReport(t, evs...), &wire.ReportAck{}); code != http.StatusOK {
		t.Fatalf("report: HTTP %d %s", code, msg)
	}
	reportPlanExecution(t, ts, idA, waitPlan(t, ts, idA))
	reportPlanExecution(t, ts, idB, waitPlan(t, ts, idB))

	adopted := map[string]uint64{}
	for _, id := range []string{idA, idB, p.ID} {
		wf, _ := srv.lookup(id)
		wf.mu.Lock()
		log := wf.eventsFrom(0)
		wf.mu.Unlock()
		gen, adoptions, pending := 0, 0, ""
		for _, ev := range log {
			switch {
			case ev.Kind == "decision":
				if ev.Decision.Adopted {
					adopted[ev.Trigger]++
					adoptions++
					pending = ev.Trigger
				}
			case ev.Kind == "plan" && ev.Trigger == "initial":
				gen = ev.Generation
			case ev.Kind == "plan":
				if ev.Trigger != pending || ev.Generation <= gen {
					t.Fatalf("%s: plan event %+v after adopted %q at generation %d", id, ev, pending, gen)
				}
				gen, pending = ev.Generation, ""
			case pending != "":
				t.Fatalf("%s: adopted %q decision never published before %+v", id, pending, ev)
			}
		}
		if pending != "" || gen != 1+adoptions {
			t.Fatalf("%s: generation %d after %d adoptions (unpublished %q)", id, gen, adoptions, pending)
		}
	}
	for _, trig := range []string{"arrival", "contention"} {
		if adopted[trig] == 0 {
			t.Errorf("no %s adoption in the logs: %v", trig, adopted)
		}
	}
	m := srv.MetricsSnapshot()
	total := uint64(0)
	for trig, got := range map[string]uint64{
		"arrival": m.ReschedulesArrival, "variance": m.ReschedulesVariance, "departure": m.ReschedulesDeparture,
		"contention": m.ReschedulesContention,
	} {
		if got != adopted[trig] {
			t.Errorf("/metrics counts %d %s adoptions, the logs %d", got, trig, adopted[trig])
		}
		total += adopted[trig]
	}
	if m.Reschedules != total {
		t.Errorf("/metrics reschedules %d, the logs %d", m.Reschedules, total)
	}
}
