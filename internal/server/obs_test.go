package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"aheft/internal/obs"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// getTrace fetches and decodes a workflow's span log from the trace
// endpoint.
func getTrace(t testing.TB, ts *httptest.Server, id string) []obs.Span {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: HTTP %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	var spans []obs.Span
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		spans = append(spans, sp)
	}
	return spans
}

// byStage indexes the first span per stage.
func byStage(spans []obs.Span) map[string]obs.Span {
	m := map[string]obs.Span{}
	for _, sp := range spans {
		if _, ok := m[sp.Stage]; !ok {
			m[sp.Stage] = sp
		}
	}
	return m
}

// TestTraceAnalyticWorkflow pins the span chain of an analytic run:
// intake → queue → plan, parented correctly, all on the owning shard,
// retained by the trace endpoint and rolled into /metrics.
func TestTraceAnalyticWorkflow(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Tracing: true})
	sc := workload.SampleScenario()
	sub, _ := submit(t, ts, encodeScenario(t, sc, "aheft", wire.Options{TieWindow: 0.05}))
	waitDone(t, ts, sub.ID)

	spans := getTrace(t, ts, sub.ID)
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want intake+queue+plan: %+v", len(spans), spans)
	}
	st := byStage(spans)
	in, q, plan := st[obs.StageIntake], st[obs.StageQueue], st[obs.StagePlan]
	if in.ID == 0 || q.ID == 0 || plan.ID == 0 {
		t.Fatalf("missing stages: %+v", st)
	}
	if q.Parent != in.ID || plan.Parent != in.ID {
		t.Fatalf("parent chain: intake=%d queue.parent=%d plan.parent=%d", in.ID, q.Parent, plan.Parent)
	}
	if q.Shard != in.Shard || plan.Shard != in.Shard {
		t.Fatalf("spans scattered across shards: %+v", spans)
	}
	for _, sp := range spans {
		if sp.Workflow != sub.ID || sp.End < sp.Start {
			t.Fatalf("span identity/clock: %+v", sp)
		}
	}

	m := getMetrics(t, ts)
	if m.TraceSpans < 3 || m.TraceSpansDropped != 0 {
		t.Fatalf("trace counters: spans=%d dropped=%d", m.TraceSpans, m.TraceSpansDropped)
	}
	if m.TraceStageMs[obs.StagePlan].Count == 0 || m.TraceStageMs[obs.StageIntake].Count == 0 {
		t.Fatalf("stage rollups: %+v", m.TraceStageMs)
	}
}

// TestTraceLiveCausalChain drives the paper's worked example through the
// live feedback loop with tracing on and checks the causal structure the
// tentpole promises: the report's ingest span parents the evaluation it
// triggered, the adoption parents onto the evaluation, and the enacted
// plan generations appear as enact spans.
func TestTraceLiveCausalChain(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Tracing: true})
	sc := workload.SampleScenario()
	var sub wire.Submitted
	if code, msg := postJSON(t, ts, "/v1/workflows", encodeLive(t, sc, "aheft", "acme", wire.Options{TieWindow: 0.05}), &sub); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d %s", code, msg)
	}
	plan := fetchPlan(t, ts, sub.ID)

	evs := append(replayPrefix(plan, 15), wire.ReportEvent{
		Kind: wire.ReportResourceJoin, Time: 15, Resource: 3,
	})
	var ack wire.ReportAck
	if code, msg := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/report", encodeReport(t, evs...), &ack); code != http.StatusOK {
		t.Fatalf("report: HTTP %d %s", code, msg)
	}
	if !ack.Rescheduled || ack.Generation != 2 {
		t.Fatalf("join ack: %+v", ack)
	}
	// Enact the new plan to completion so the drain in cleanup is
	// instant.
	started, finished := map[int]bool{}, map[int]bool{}
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
			tail = append(tail, wire.ReportEvent{Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource})
		}
		tail = append(tail, wire.ReportEvent{Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Duration: a.Finish - a.Start})
	}
	sort.SliceStable(tail, func(i, j int) bool {
		if tail[i].Time != tail[j].Time {
			return tail[i].Time < tail[j].Time
		}
		return tail[i].Kind == wire.ReportJobStarted && tail[j].Kind != wire.ReportJobStarted
	})
	if code, msg := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/report", encodeReport(t, tail...), nil); code != http.StatusOK {
		t.Fatalf("tail report: HTTP %d %s", code, msg)
	}
	waitDone(t, ts, sub.ID)
	// Reading a finished workflow's last plan enacts nothing: no span.
	if last := fetchPlan(t, ts, sub.ID); last.Generation != 2 {
		t.Fatalf("terminal plan: generation %d, want 2", last.Generation)
	}

	spans := getTrace(t, ts, sub.ID)
	st := byStage(spans)
	for _, stage := range []string{obs.StageIntake, obs.StageQueue, obs.StagePlan, obs.StageIngest, obs.StageEvaluate, obs.StageAdopt, obs.StageEnact} {
		if _, ok := st[stage]; !ok {
			t.Fatalf("stage %q missing from trace: %+v", stage, spans)
		}
	}
	ingest, eval, adopt := st[obs.StageIngest], st[obs.StageEvaluate], st[obs.StageAdopt]
	if eval.Parent != ingest.ID {
		t.Fatalf("evaluate.parent=%d, ingest span is %d", eval.Parent, ingest.ID)
	}
	if eval.Trigger != "arrival" || !eval.Adopted {
		t.Fatalf("evaluate attrs: %+v", eval)
	}
	if adopt.Parent != eval.ID || adopt.Generation != 2 {
		t.Fatalf("adopt span: %+v (evaluate is %d)", adopt, eval.ID)
	}
	// Two enact spans: the initial GET …/plan (gen 1, parented on the
	// root intake span) and the report-ack piggyback (gen 2, parented on
	// the ingest span).
	gens, enacts := map[int]obs.Span{}, 0
	for _, sp := range spans {
		if sp.Stage == obs.StageEnact {
			gens[sp.Generation] = sp
			enacts++
		}
	}
	if len(gens) != 2 || enacts != 2 {
		t.Fatalf("%d enact spans, generations: %+v", enacts, gens)
	}
	if gens[1].Parent != st[obs.StageIntake].ID || gens[2].Parent != ingest.ID {
		t.Fatalf("enact parents: gen1=%+v gen2=%+v", gens[1], gens[2])
	}
}

// TestTraceEndpointErrors pins the endpoint's failure modes: 409 when
// tracing is off, 404 for an unknown workflow.
func TestTraceEndpointErrors(t *testing.T) {
	_, off := newTestServer(t, Config{Shards: 1})
	resp, err := off.Client().Get(off.URL + "/v1/workflows/wf-0000000001/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("tracing-off trace: HTTP %d, want 409", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{Shards: 1, Tracing: true})
	resp, err = on.Client().Get(on.URL + "/v1/workflows/wf-9999999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workflow trace: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestPrometheusExposition pins satellite 2: the metrics endpoint
// negotiates the Prometheus text format via ?format= and Accept, keeps
// JSON as the default, and renders the families scrape configs depend
// on with sorted, stable labels.
func TestPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Tracing: true})
	sc := workload.SampleScenario()
	sub, _ := submit(t, ts, encodeScenario(t, sc, "aheft", wire.Options{TieWindow: 0.05}))
	waitDone(t, ts, sub.ID)

	get := func(path, accept string) (string, string) {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteString("\n")
		}
		return resp.Header.Get("Content-Type"), b.String()
	}

	// Default stays JSON.
	ct, body := get("/metrics", "")
	if !strings.Contains(ct, "application/json") || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Fatalf("default /metrics: ct=%q body=%q…", ct, body[:min(len(body), 60)])
	}

	for _, variant := range []struct{ path, accept string }{
		{"/metrics?format=prometheus", ""},
		{"/metrics", "text/plain"},
		{"/metrics", "application/openmetrics-text"},
	} {
		ct, body = get(variant.path, variant.accept)
		if !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("%s (Accept %q): content type %q", variant.path, variant.accept, ct)
		}
		for _, want := range []string{
			"# TYPE aheft_submissions_total counter",
			"aheft_submissions_total 1",
			"aheft_completed_total 1",
			"# TYPE aheft_inflight gauge",
			"aheft_trace_spans_total",
			`aheft_queue_depth{shard="0"}`,
			`aheft_queue_depth{shard="1"}`,
			`aheft_trace_stage_ms{stage="plan",quantile="0.5"}`,
			`aheft_trace_stage_ms_count{stage="plan"}`,
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("%s: exposition missing %q:\n%s", variant.path, want, body)
			}
		}
	}

	// ?format=json forces JSON whatever the Accept header says.
	ct, _ = get("/metrics?format=json", "text/plain")
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("format=json override: content type %q", ct)
	}
}
