package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilTracerIsNoOp pins the nil-safety contract every instrumentation
// site relies on: a nil *Tracer (tracing disabled) and a nil *Active
// must absorb the full API without panicking or allocating state.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	a := tr.Start(StageIntake, "wf-1")
	if a != nil {
		t.Fatalf("Start on nil tracer returned %v", a)
	}
	if id := a.End(); id != 0 {
		t.Fatalf("End on nil Active returned %d", id)
	}
	if id := a.Fail(nil); id != 0 {
		t.Fatalf("Fail on nil Active returned %d", id)
	}
	if id := tr.Emit(Span{Stage: StageEvaluate}, time.Millisecond); id != 0 {
		t.Fatalf("Emit on nil tracer returned %d", id)
	}
	if s := tr.Spans("wf-1"); s != nil {
		t.Fatalf("Spans on nil tracer returned %v", s)
	}
	tr.Release("wf-1")
	if st := tr.StageSummary(); st != nil {
		t.Fatalf("StageSummary on nil tracer returned %v", st)
	}
	if spans, dropped := tr.Totals(); spans != 0 || dropped != 0 {
		t.Fatalf("Totals on nil tracer returned %d/%d", spans, dropped)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close on nil tracer: %v", err)
	}
}

// TestSpanFilingAndLinks walks one workflow through Start/End and Emit
// and checks retention order, parent/link threading, stage windows and
// totals.
func TestSpanFilingAndLinks(t *testing.T) {
	tr := New(Options{})

	in := tr.Start(StageIntake, "wf-1")
	in.Span.Tenant = "acme"
	in.Span.Shard = 3
	intakeID := in.End()
	if intakeID == 0 {
		t.Fatal("intake span got ID 0")
	}

	evalID := tr.Emit(Span{
		Stage: StageEvaluate, Workflow: "wf-1", Shard: 3,
		Parent: intakeID, Link: 77, LinkWorkflow: "wf-other",
		Trigger: "contention", Adopted: true,
	}, 2*time.Millisecond)
	if evalID <= intakeID {
		t.Fatalf("span IDs not increasing: intake %d, evaluate %d", intakeID, evalID)
	}

	spans := tr.Spans("wf-1")
	if len(spans) != 2 {
		t.Fatalf("retained %d spans, want 2: %+v", len(spans), spans)
	}
	if spans[0].Stage != StageIntake || spans[0].Tenant != "acme" || spans[0].Shard != 3 {
		t.Fatalf("intake span: %+v", spans[0])
	}
	if spans[0].End < spans[0].Start {
		t.Fatalf("intake span ends before it starts: %+v", spans[0])
	}
	ev := spans[1]
	if ev.Parent != intakeID || ev.Link != 77 || ev.LinkWorkflow != "wf-other" || !ev.Adopted {
		t.Fatalf("evaluate span links: %+v", ev)
	}
	// Emit back-dates Start by the measured elapsed.
	if got := ev.End - ev.Start; got != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("emitted span duration %dns, want 2ms", got)
	}

	sum := tr.StageSummary()
	if sum[StageIntake].Count != 1 || sum[StageEvaluate].Count != 1 {
		t.Fatalf("stage summary: %+v", sum)
	}
	if p50 := sum[StageEvaluate].P50; p50 < 1.9 || p50 > 2.1 {
		t.Fatalf("evaluate p50 %.3fms, want ~2ms", p50)
	}
	if spans, dropped := tr.Totals(); spans != 2 || dropped != 0 {
		t.Fatalf("totals %d/%d, want 2/0", spans, dropped)
	}

	tr.Release("wf-1")
	if s := tr.Spans("wf-1"); s != nil {
		t.Fatalf("spans survived Release: %v", s)
	}
}

// TestFailRecordsError pins that Fail completes the span with the error
// attribute set.
func TestFailRecordsError(t *testing.T) {
	tr := New(Options{})
	a := tr.Start(StageIntake, "wf-err")
	a.Fail(errTest{})
	spans := tr.Spans("wf-err")
	if len(spans) != 1 || spans[0].Err != "boom" {
		t.Fatalf("failed span: %+v", spans)
	}
}

type errTest struct{}

func (errTest) Error() string { return "boom" }

// TestPerWorkflowCap pins the retention bound: spans past the cap still
// roll into the stage windows and totals but are not retained, and the
// drop is counted.
func TestPerWorkflowCap(t *testing.T) {
	tr := New(Options{MaxSpansPerWorkflow: 2})
	for i := 0; i < 5; i++ {
		tr.Emit(Span{Stage: StageEvaluate, Workflow: "wf-cap"}, 0)
	}
	if got := len(tr.Spans("wf-cap")); got != 2 {
		t.Fatalf("retained %d spans, want cap 2", got)
	}
	spans, dropped := tr.Totals()
	if spans != 5 || dropped != 3 {
		t.Fatalf("totals %d/%d, want 5/3", spans, dropped)
	}
	if sum := tr.StageSummary(); sum[StageEvaluate].Count != 5 {
		t.Fatalf("stage window missed dropped spans: %+v", sum)
	}
}

// TestOTLPSink checks the file exporter's shape: one JSON object per
// line with OTLP field names, the workflow-derived traceId, hex span
// IDs, attributes, and a cross-trace link pointing into the linked
// workflow's trace.
func TestOTLPSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Sink: &buf})

	a := tr.Start(StagePlan, "wf-sink")
	a.Span.Shard = 1
	planID := a.End()
	tr.Emit(Span{
		Stage: StageEvaluate, Workflow: "wf-sink", Parent: planID,
		Link: planID, LinkWorkflow: "wf-releasing",
		Trigger: "contention", Adopted: true, Generation: 2,
	}, time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	type otlp struct {
		TraceID      string `json:"traceId"`
		SpanID       string `json:"spanId"`
		ParentSpanID string `json:"parentSpanId"`
		Name         string `json:"name"`
		StartNano    string `json:"startTimeUnixNano"`
		EndNano      string `json:"endTimeUnixNano"`
		Attributes   []struct {
			Key   string `json:"key"`
			Value struct {
				StringValue string `json:"stringValue"`
				IntValue    string `json:"intValue"`
				BoolValue   bool   `json:"boolValue"`
			} `json:"value"`
		} `json:"attributes"`
		Links []struct {
			TraceID string `json:"traceId"`
			SpanID  string `json:"spanId"`
		} `json:"links"`
	}
	var plan, eval otlp
	if err := json.Unmarshal([]byte(lines[0]), &plan); err != nil {
		t.Fatalf("line 0: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &eval); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	want := TraceID("wf-sink")
	if len(want) != 32 {
		t.Fatalf("TraceID length %d, want 32 hex chars", len(want))
	}
	if plan.TraceID != want || eval.TraceID != want {
		t.Fatalf("traceIds %q/%q, want %q", plan.TraceID, eval.TraceID, want)
	}
	if plan.Name != StagePlan || eval.Name != StageEvaluate {
		t.Fatalf("names %q/%q", plan.Name, eval.Name)
	}
	if eval.ParentSpanID != plan.SpanID {
		t.Fatalf("evaluate parent %q, plan span %q", eval.ParentSpanID, plan.SpanID)
	}
	if plan.StartNano == "" || plan.EndNano == "" {
		t.Fatalf("plan timestamps missing: %+v", plan)
	}
	attrs := map[string]string{}
	adopted := false
	for _, kv := range eval.Attributes {
		switch {
		case kv.Value.StringValue != "":
			attrs[kv.Key] = kv.Value.StringValue
		case kv.Value.IntValue != "":
			attrs[kv.Key] = kv.Value.IntValue
		case kv.Value.BoolValue:
			adopted = adopted || kv.Key == "adopted"
		}
	}
	if attrs["trigger"] != "contention" || attrs["generation"] != "2" || !adopted {
		t.Fatalf("evaluate attributes: %v adopted=%v", attrs, adopted)
	}
	if len(eval.Links) != 1 || eval.Links[0].TraceID != TraceID("wf-releasing") || eval.Links[0].SpanID != plan.SpanID {
		t.Fatalf("cross-trace link: %+v", eval.Links)
	}
}
