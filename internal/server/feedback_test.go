package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"aheft/internal/wire"
	"aheft/internal/workload"
)

func encodeLive(t testing.TB, sc *workload.Scenario, policy, tenant string, opts wire.Options) []byte {
	t.Helper()
	data, err := wire.EncodeSubmission(&wire.Submission{
		Mode:    wire.ModeLive,
		Tenant:  tenant,
		Policy:  policy,
		Options: opts,
		Graph:   sc.Graph,
		Comp:    sc.Table,
		Pool:    sc.Pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postJSON(t testing.TB, ts *httptest.Server, path string, body []byte, v any) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var ed errorDoc
		_ = json.NewDecoder(resp.Body).Decode(&ed)
		return resp.StatusCode, ed.Error
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ""
}

// fetchPlan polls GET …/plan until the shard has planned the workflow.
func fetchPlan(t testing.TB, ts *httptest.Server, id string) wire.Plan {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + id + "/plan")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var plan wire.Plan
			if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return plan
		}
		resp.Body.Close()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("workflow %s never produced a plan", id)
	return wire.Plan{}
}

func encodeReport(t testing.TB, events ...wire.ReportEvent) []byte {
	t.Helper()
	data, err := wire.EncodeReport(&wire.Report{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// replayPrefix builds the report events of a faithful execution of plan
// up to clock: starts for everything begun, measured finishes for
// everything completed.
func replayPrefix(plan wire.Plan, clock float64) []wire.ReportEvent {
	var evs []wire.ReportEvent
	for _, a := range plan.Assignments {
		if a.Start < clock {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource,
			})
		}
		if a.Finish <= clock {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Duration: a.Finish - a.Start,
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Kind == wire.ReportJobStarted && evs[j].Kind != wire.ReportJobStarted
	})
	return evs
}

// TestLiveSampleFeedbackLoop walks the paper's worked example through the
// HTTP feedback loop: live submission, plan fetch (static HEFT, 80),
// faithful enactment reports up to t=15, a resource-join report that
// must come back as an adopted arrival reschedule (76), enactment of the
// new plan, and a terminal makespan of 76 — with the trigger recorded in
// the SSE event log and the per-trigger metrics.
func TestLiveSampleFeedbackLoop(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	sc := workload.SampleScenario()
	var sub wire.Submitted
	if code, msg := postJSON(t, ts, "/v1/workflows", encodeLive(t, sc, "aheft", "acme", wire.Options{TieWindow: 0.05}), &sub); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d %s", code, msg)
	}
	plan := fetchPlan(t, ts, sub.ID)
	if plan.Generation != 1 || plan.Trigger != "initial" || plan.Makespan != 80 || len(plan.Assignments) != 10 {
		t.Fatalf("initial plan: %+v", plan)
	}

	// Enact faithfully to t=15, then report the r4 join.
	evs := append(replayPrefix(plan, 15), wire.ReportEvent{
		Kind: wire.ReportResourceJoin, Time: 15, Resource: 3,
	})
	var ack wire.ReportAck
	if code, msg := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/report", encodeReport(t, evs...), &ack); code != http.StatusOK {
		t.Fatalf("report: HTTP %d %s", code, msg)
	}
	if !ack.Rescheduled || ack.Trigger != "arrival" || ack.Generation != 2 || ack.Plan == nil {
		t.Fatalf("join ack: %+v", ack)
	}
	if ack.Plan.Makespan != 76 {
		t.Fatalf("rescheduled makespan %g, want 76", ack.Plan.Makespan)
	}

	// Enact the new plan to completion: finish the running jobs and
	// start+finish the rest at their planned times.
	started := map[int]bool{}
	finished := map[int]bool{}
	for _, ev := range evs {
		switch ev.Kind {
		case wire.ReportJobStarted:
			started[ev.Job] = true
		case wire.ReportJobFinished:
			finished[ev.Job] = true
		}
	}
	var tail []wire.ReportEvent
	for _, a := range ack.Plan.Assignments {
		if finished[a.Job] {
			continue
		}
		if !started[a.Job] {
			tail = append(tail, wire.ReportEvent{
				Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource,
			})
		}
		tail = append(tail, wire.ReportEvent{
			Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Duration: a.Finish - a.Start,
		})
	}
	sort.SliceStable(tail, func(i, j int) bool {
		if tail[i].Time != tail[j].Time {
			return tail[i].Time < tail[j].Time
		}
		return tail[i].Kind == wire.ReportJobStarted && tail[j].Kind != wire.ReportJobStarted
	})
	var ack2 wire.ReportAck
	if code, msg := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/report", encodeReport(t, tail...), &ack2); code != http.StatusOK {
		t.Fatalf("tail report: HTTP %d %s", code, msg)
	}
	if !ack2.Done || ack2.Makespan != 76 {
		t.Fatalf("final ack: %+v", ack2)
	}

	st := waitDone(t, ts, sub.ID)
	if st.State != StateDone || st.Makespan != 76 || st.InitialMakespan != 80 {
		t.Fatalf("status: %+v", st)
	}
	if st.Mode != wire.ModeLive || st.Tenant != "acme" || st.Generation != 2 || st.Reports != 2 {
		t.Fatalf("live status fields: %+v", st)
	}
	if len(st.Decisions) != 1 || !st.Decisions[0].Adopted || st.Decisions[0].Trigger != "arrival" || st.Decisions[0].Arrived != 1 {
		t.Fatalf("decisions: %+v", st.Decisions)
	}

	// The SSE log must carry the plan generations and the decision with
	// its trigger lifted into the envelope.
	resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var kinds []string
	scanner := bufio.NewScanner(resp.Body)
	lastSeq := -1
	for scanner.Scan() {
		data, ok := strings.CutPrefix(scanner.Text(), "data: ")
		if !ok {
			continue
		}
		var ev wire.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != lastSeq+1 {
			t.Fatalf("seq gap at %d", ev.Seq)
		}
		lastSeq = ev.Seq
		kinds = append(kinds, ev.Kind)
		switch {
		case ev.Kind == "decision":
			if ev.Trigger != "arrival" || ev.Arrived != 1 || ev.Decision == nil || ev.Decision.Trigger != "arrival" {
				t.Fatalf("decision event lost its trigger: %+v", ev)
			}
		case ev.Kind == "plan" && ev.Generation == 2:
			if ev.Trigger != "arrival" || ev.Makespan != 76 {
				t.Fatalf("reschedule plan event: %+v", ev)
			}
		}
	}
	want := []string{"submitted", "started", "plan", "decision", "plan", "done"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("event kinds %v, want %v", kinds, want)
	}

	m := getMetrics(t, ts)
	if m.Reports != 2 || m.ReschedulesArrival != 1 || m.Reschedules != 1 || m.LiveResident != 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.HistoryTenants != 1 || m.HistoryCells == 0 {
		t.Fatalf("history gauges: tenants=%d cells=%d", m.HistoryTenants, m.HistoryCells)
	}
	if m.EventsDropped != 0 {
		t.Fatalf("events dropped: %d", m.EventsDropped)
	}
}

// TestReportRejectionPaths covers every HTTP rejection of the report
// endpoint: unknown workflow, wrong mode, terminal workflow, malformed
// body, and state-invalid events (out-of-range job, non-monotonic
// clock) — each leaving the run untouched and counted in
// reports_rejected.
func TestReportRejectionPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	sc := workload.SampleScenario()

	okReport := encodeReport(t, wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 0})

	// Unknown workflow.
	if code, _ := postJSON(t, ts, "/v1/workflows/nope/report", okReport, nil); code != http.StatusNotFound {
		t.Fatalf("unknown workflow: HTTP %d", code)
	}
	// Analytic workflows accept no reports.
	aSub, resp := submit(t, ts, encodeScenario(t, sc, "aheft", wire.Options{}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("analytic submit: HTTP %d", resp.StatusCode)
	}
	waitDone(t, ts, aSub.ID)
	if code, msg := postJSON(t, ts, "/v1/workflows/"+aSub.ID+"/report", okReport, nil); code != http.StatusConflict || !strings.Contains(msg, "live") {
		t.Fatalf("analytic report: HTTP %d %q", code, msg)
	}
	if code, _ := postJSON(t, ts, "/v1/workflows/"+aSub.ID+"/whatif", []byte(`{}`), nil); code != http.StatusConflict {
		t.Fatalf("analytic what-if: HTTP %d", code)
	}

	// Live workflow: bad payloads and bad state transitions.
	var sub wire.Submitted
	if code, _ := postJSON(t, ts, "/v1/workflows", encodeLive(t, sc, "aheft", "", wire.Options{}), &sub); code != http.StatusAccepted {
		t.Fatalf("live submit: HTTP %d", code)
	}
	plan := fetchPlan(t, ts, sub.ID)
	reportURL := "/v1/workflows/" + sub.ID + "/report"
	if code, _ := postJSON(t, ts, reportURL, []byte("{not json"), nil); code != http.StatusBadRequest {
		t.Fatalf("malformed report: HTTP %d", code)
	}
	if code, msg := postJSON(t, ts, reportURL, encodeReport(t,
		wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 0, Job: 500, Resource: 0},
	), nil); code != http.StatusBadRequest || !strings.Contains(msg, "out of range") {
		t.Fatalf("out-of-range job: HTTP %d %q", code, msg)
	}
	if code, msg := postJSON(t, ts, reportURL, encodeReport(t,
		wire.ReportEvent{Kind: wire.ReportJobFinished, Time: 3, Job: 0, Duration: 3},
	), nil); code != http.StatusBadRequest || !strings.Contains(msg, "before it started") {
		t.Fatalf("finish before start: HTTP %d %q", code, msg)
	}
	// Advance the clock, then try to report the past.
	if code, _ := postJSON(t, ts, reportURL, encodeReport(t,
		wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 10, Job: 0, Resource: 0},
	), nil); code != http.StatusOK {
		t.Fatalf("clock advance: HTTP %d", code)
	}
	if code, msg := postJSON(t, ts, reportURL, encodeReport(t,
		wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 5, Job: 1, Resource: 0},
	), nil); code != http.StatusBadRequest || !strings.Contains(msg, "non-monotonic") {
		t.Fatalf("non-monotonic: HTTP %d %q", code, msg)
	}

	// Drive the live workflow terminal, then report again.
	var evs []wire.ReportEvent
	evs = append(evs, wire.ReportEvent{Kind: wire.ReportJobFinished, Time: 20, Job: 0, Duration: 10})
	for _, a := range plan.Assignments {
		if a.Job == 0 {
			continue
		}
		evs = append(evs, wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 20, Job: a.Job, Resource: a.Resource})
	}
	clock := 21.0
	for _, a := range plan.Assignments {
		if a.Job == 0 {
			continue
		}
		evs = append(evs, wire.ReportEvent{Kind: wire.ReportJobFinished, Time: clock, Job: a.Job, Duration: 1})
		clock++
	}
	var ack wire.ReportAck
	if code, msg := postJSON(t, ts, reportURL, encodeReport(t, evs...), &ack); code != http.StatusOK || !ack.Done {
		t.Fatalf("completion report: HTTP %d %q %+v", code, msg, ack)
	}
	if code, msg := postJSON(t, ts, reportURL, okReport, nil); code != http.StatusConflict || !strings.Contains(msg, "terminal") {
		t.Fatalf("terminal report: HTTP %d %q", code, msg)
	}

	// Seven rejections crossed the report endpoint: unknown workflow,
	// analytic mode, malformed body, out-of-range job, finish-before-
	// start, non-monotonic clock, terminal workflow.
	m := getMetrics(t, ts)
	if m.ReportsRejected != 7 {
		t.Fatalf("reports_rejected = %d, want 7", m.ReportsRejected)
	}
}

// TestWhatIfEndpoint asks the §3.3 capacity question over HTTP against a
// live run mid-execution.
func TestWhatIfEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 1})
	sc := workload.SampleScenario()
	var sub wire.Submitted
	if code, _ := postJSON(t, ts, "/v1/workflows", encodeLive(t, sc, "aheft", "", wire.Options{TieWindow: 0.05}), &sub); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	plan := fetchPlan(t, ts, sub.ID)
	if code, _ := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/report",
		encodeReport(t, replayPrefix(plan, 15)...), nil); code != http.StatusOK {
		t.Fatalf("replay report: HTTP %d", code)
	}

	var doc wire.WhatIfDoc
	q, _ := json.Marshal(wire.WhatIfRequest{Clock: 15, Add: []int{3}})
	if code, msg := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/whatif", q, &doc); code != http.StatusOK {
		t.Fatalf("what-if: HTTP %d %q", code, msg)
	}
	if doc.Workflow != sub.ID || doc.Clock != 15 || doc.CurrentMakespan != 80 || doc.NewMakespan != 76 || !doc.WouldAdopt {
		t.Fatalf("what-if doc: %+v", doc)
	}
	// The tentative query must not have moved the plan.
	if p := fetchPlan(t, ts, sub.ID); p.Generation != 1 {
		t.Fatalf("what-if mutated the plan: %+v", p)
	}
	// Bad hypotheses bounce.
	q, _ = json.Marshal(wire.WhatIfRequest{Remove: []int{0, 1, 2, 3}})
	if code, _ := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/whatif", q, nil); code != http.StatusBadRequest {
		t.Fatalf("empty-pool what-if: HTTP %d", code)
	}
	if code, _ := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/whatif", []byte("{bad"), nil); code != http.StatusBadRequest {
		t.Fatalf("malformed what-if: HTTP %d", code)
	}
	if m := getMetrics(t, ts); m.WhatIfQueries != 1 {
		t.Fatalf("whatif_queries = %d, want 1", m.WhatIfQueries)
	}
	// The live run is deliberately left unfinished; drain it on a short
	// deadline so the test cleanup doesn't sit out the full timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// TestLiveDrain covers both drain outcomes for resident live workflows:
// a clean drain waits for the reporting client to finish, and an expired
// drain deadline force-fails what remains; the failed run's status still
// lists the decision its event log holds.
func TestLiveDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 1})
	sc := workload.SampleScenario()
	var sub wire.Submitted
	if code, _ := postJSON(t, ts, "/v1/workflows", encodeLive(t, sc, "aheft", "", wire.Options{}), &sub); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	plan := fetchPlan(t, ts, sub.ID)

	// Begin a clean drain; the live workflow must keep accepting reports
	// and the drain must complete once it finishes.
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Shutdown(context.Background()) }()
	// New submissions are refused while draining… A submission the loop
	// lands before the drain begins is resident too, and the drain waits
	// for it: its client must finish it like the first.
	resident := []string{sub.ID}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var extra wire.Submitted
		code, _ := postJSON(t, ts, "/v1/workflows", encodeLive(t, sc, "aheft", "", wire.Options{}), &extra)
		if code == http.StatusServiceUnavailable {
			break
		}
		if code == http.StatusAccepted {
			t.Logf("accepted %s before the drain began", extra.ID)
			resident = append(resident, extra.ID)
		}
		if time.Now().After(deadline) {
			t.Fatal("draining daemon kept accepting submissions")
		}
	}
	// …but the resident runs drain at their client's pace.
	for i, id := range resident {
		if i > 0 {
			plan = fetchPlan(t, ts, id)
		}
		var evs []wire.ReportEvent
		for _, a := range plan.Assignments {
			evs = append(evs, wire.ReportEvent{Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource},
				wire.ReportEvent{Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Duration: a.Finish - a.Start})
		}
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Time != evs[j].Time {
				return evs[i].Time < evs[j].Time
			}
			return evs[i].Kind == wire.ReportJobStarted && evs[j].Kind != wire.ReportJobStarted
		})
		var ack wire.ReportAck
		if code, msg := postJSON(t, ts, "/v1/workflows/"+id+"/report", encodeReport(t, evs...), &ack); code != http.StatusOK || !ack.Done {
			t.Fatalf("drain-time report: HTTP %d %q %+v", code, msg, ack)
		}
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	if st := getStatus(t, ts, sub.ID); st.State != StateDone {
		t.Fatalf("drained workflow: %+v", st)
	}

	// Second daemon: the deadline expires on a live run abandoned after
	// the r4 join was adopted.
	srv2, ts2 := newTestServer(t, Config{Shards: 1})
	var sub2 wire.Submitted
	if code, _ := postJSON(t, ts2, "/v1/workflows", encodeLive(t, sc, "aheft", "", wire.Options{TieWindow: 0.05}), &sub2); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	join := append(replayPrefix(fetchPlan(t, ts2, sub2.ID), 15), wire.ReportEvent{Kind: wire.ReportResourceJoin, Time: 15, Resource: 3})
	var ack wire.ReportAck
	if code, msg := postJSON(t, ts2, "/v1/workflows/"+sub2.ID+"/report", encodeReport(t, join...), &ack); code != http.StatusOK || !ack.Rescheduled {
		t.Fatalf("join report: HTTP %d %q %+v", code, msg, ack)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv2.Shutdown(ctx); err == nil {
		t.Fatal("expired drain reported success")
	}
	st := getStatus(t, ts2, sub2.ID)
	if st.State != StateFailed || len(st.Decisions) != 1 || !st.Decisions[0].Adopted || st.Decisions[0].Trigger != "arrival" || st.Adoptions != 1 {
		t.Fatalf("abandoned live workflow: %+v", st)
	}
}

// TestAckAndPlanBytes pins what the appended responses put on the wire:
// the plan and an adopting ack are exactly json.Marshal of the document
// they decode to plus a newline, with Content-Length announced; and a
// document the encoder refuses — a non-finite number, which no adopted
// plan carries — is a 500 in writeJSON's format, not invalid JSON.
func TestAckAndPlanBytes(t *testing.T) {
	srv := New(Config{Shards: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // the workflow is left half-enacted: cut it short, nothing to drain
		_ = srv.Shutdown(ctx)
	}()
	var sub wire.Submitted
	if code, msg := postJSON(t, ts, "/v1/workflows", encodeLive(t, workload.SampleScenario(), "aheft", "acme", wire.Options{TieWindow: 0.05}), &sub); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d %s", code, msg)
	}
	plan := fetchPlan(t, ts, sub.ID)
	requireMarshalBytes := func(what string, resp *http.Response, doc any) {
		t.Helper()
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, %v", what, resp.StatusCode, err)
		}
		if err := json.Unmarshal(got, doc); err != nil {
			t.Fatalf("%s: %v in %q", what, err, got)
		}
		want, _ := json.Marshal(doc)
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
		}
		if resp.ContentLength != int64(len(got)) || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: Content-Length %d for %d bytes, Content-Type %q", what, resp.ContentLength, len(got), resp.Header.Get("Content-Type"))
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + sub.ID + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	requireMarshalBytes("plan", resp, new(wire.Plan))
	evs := append(replayPrefix(plan, 15), wire.ReportEvent{Kind: wire.ReportResourceJoin, Time: 15, Resource: 3})
	resp, err = ts.Client().Post(ts.URL+"/v1/workflows/"+sub.ID+"/report", "application/json", bytes.NewReader(encodeReport(t, evs...)))
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.ReportAck
	requireMarshalBytes("ack", resp, &ack)
	if !ack.Rescheduled || ack.Plan == nil || len(ack.Plan.Assignments) != 10 {
		t.Fatalf("the ack carries no adopted plan: %+v", ack)
	}
	// More adopting acks on the same workflow, each encoded through the
	// memo of the one before: r1 and then r2, which hold pending jobs but
	// run none, leave (their jobs must move) and rejoin.
	adopted := 1
	for i, clock := 0, 15.0; adopted < 4 && i < 8; i++ {
		clock += 0.25
		kind := wire.ReportResourceLeave
		if i%2 == 1 {
			kind = wire.ReportResourceJoin
		}
		resp, err = ts.Client().Post(ts.URL+"/v1/workflows/"+sub.ID+"/report", "application/json",
			bytes.NewReader(encodeReport(t, wire.ReportEvent{Kind: kind, Time: clock, Resource: i / 2 % 2})))
		if err != nil {
			t.Fatal(err)
		}
		var next wire.ReportAck
		requireMarshalBytes(fmt.Sprintf("ack %d", i+2), resp, &next)
		if next.Plan != nil {
			adopted++
		}
	}
	if adopted < 4 {
		t.Fatalf("%d adopting acks, want 4", adopted)
	}

	rec := httptest.NewRecorder()
	writeAppended(rec, &wire.Plan{Workflow: sub.ID, Makespan: math.Inf(1)}, nil, wire.AppendPlan)
	var ed errorDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &ed); rec.Code != http.StatusInternalServerError || err != nil || ed.Error == "" {
		t.Fatalf("refused document: HTTP %d %q (%v)", rec.Code, rec.Body.Bytes(), err)
	}
}

// TestAckMemoEndsWithRun: the memo a live workflow's adopting acks encode
// through lives in its running half, so neither a run driven to done nor
// one force-cancelled at the drain deadline leaves it reachable from the
// retained record — or from anywhere.
func TestAckMemoEndsWithRun(t *testing.T) {
	srv := New(Config{Shards: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// adopt submits the sample for a tenant with no history and reports
	// the r4 join at t=15, whose ack carries the adopted plan; it returns
	// a channel its memo's finalizer closes once the memo is unreachable.
	adopt := func(tenant string) (string, wire.Plan, <-chan struct{}) {
		var sub wire.Submitted
		if code, msg := postJSON(t, ts, "/v1/workflows", encodeLive(t, workload.SampleScenario(), "aheft", tenant, wire.Options{TieWindow: 0.05}), &sub); code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d %s", code, msg)
		}
		evs := append(replayPrefix(fetchPlan(t, ts, sub.ID), 15), wire.ReportEvent{Kind: wire.ReportResourceJoin, Time: 15, Resource: 3})
		var ack wire.ReportAck
		if code, msg := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/report", encodeReport(t, evs...), &ack); code != http.StatusOK || ack.Plan == nil {
			t.Fatalf("join report: HTTP %d %s %+v", code, msg, ack)
		}
		wf, _ := srv.lookup(sub.ID)
		wf.mu.Lock()
		defer wf.mu.Unlock()
		if wf.memo == nil {
			t.Fatal("an adopting ack left no memo on the running workflow")
		}
		freed := make(chan struct{})
		runtime.SetFinalizer(wf.memo, func(*ackMemo) { close(freed) })
		return sub.ID, *ack.Plan, freed
	}
	requireGone := func(what, id string, freed <-chan struct{}) {
		t.Helper()
		wf, _ := srv.lookup(id)
		wf.mu.Lock()
		running := wf.running
		wf.mu.Unlock()
		if running != nil {
			t.Fatalf("%s: the retained record keeps its running half", what)
		}
		for i := 0; ; i++ {
			runtime.GC()
			select {
			case <-freed:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if i == 10 {
				t.Fatalf("%s: the memo outlived the run", what)
			}
		}
	}

	done, plan, doneMemo := adopt("acme")
	var tail []wire.ReportEvent
	for _, ev := range replayPrefix(plan, math.Inf(1)) {
		if ev.Time >= 15 {
			tail = append(tail, ev)
		}
	}
	var ack wire.ReportAck
	if code, msg := postJSON(t, ts, "/v1/workflows/"+done+"/report", encodeReport(t, tail...), &ack); code != http.StatusOK || !ack.Done {
		t.Fatalf("tail report: HTTP %d %s %+v", code, msg, ack)
	}
	requireGone("done", done, doneMemo)

	cancelled, _, cancelledMemo := adopt("beta")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("expired drain reported success")
	}
	if st := getStatus(t, ts, cancelled); st.State != StateFailed {
		t.Fatalf("force-cancelled workflow: %+v", st)
	}
	requireGone("force-cancelled", cancelled, cancelledMemo)
}

// TestAckMemoSharedByHandlers: the HTTP goroutines a workflow's adopting
// acks are handed to encode through its one memo at once, each under its
// lock, and every ack still comes out as json.Marshal's bytes.
func TestAckMemoSharedByHandlers(t *testing.T) {
	var plans [3]*wire.Plan
	for g := range plans {
		p := &wire.Plan{Workflow: "wf", Generation: g + 1, Trigger: "variance"}
		for j := 0; j < 40; j++ {
			start := float64(j) * 1.5
			if j%3 == g {
				start += 0.25
			}
			p.Assignments = append(p.Assignments, wire.Assignment{Job: j, Resource: (j + g) % 4, Start: start, Finish: start + 1.5})
		}
		plans[g] = p
	}
	var memo ackMemo
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ack := &wire.ReportAck{Workflow: "wf", Rescheduled: true, Plan: plans[(g+i)%len(plans)]}
				rec := httptest.NewRecorder()
				writeAppended(rec, ack, &memo, wire.AppendReportAck)
				want, _ := json.Marshal(ack)
				if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
					t.Errorf("ack %d of goroutine %d:\n got %q\nwant %q", i, g, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
