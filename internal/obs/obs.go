// Package obs is the daemon's in-process observability layer: a
// lightweight causal span model instrumented across the full decision
// path (intake → shard enqueue → plan → report ingest → reschedule
// evaluation → adoption → enactment) plus the per-stage latency rollups
// /metrics exposes.
//
// A Span is cheap on purpose: a fixed struct, an atomic ID, two
// monotonic clock readings, and one short critical section to file it —
// no interning, no context plumbing, no sampling machinery. Spans are
// linked three ways:
//
//   - Parent: intra-workflow structure (an evaluate span's parent is the
//     report-ingest span whose events triggered it);
//   - Link: causal cross-workflow edges (a contention-trigger evaluate
//     span links to the *releasing* workflow's finish-report span — the
//     span of the batch that freed the capacity);
//   - Workflow/Tenant/Grid attributes for filtering.
//
// Completed spans are retained per workflow (bounded, evicted with the
// workflow record) for GET /v1/workflows/{id}/trace, rolled into
// per-stage latency windows for /metrics, and — when a sink is
// configured — streamed as OTLP-shaped JSON lines (one span object per
// line using OTLP field names: traceId, spanId, parentSpanId, name,
// startTimeUnixNano, endTimeUnixNano, attributes, links) so standard
// tooling can ingest the file without a custom parser.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aheft/internal/stats"
)

// Stage names instrumented across the daemon's decision path, in
// causal order.
const (
	// StageIntake covers HTTP submission handling: request arrival to
	// accept (enqueue) or reject.
	StageIntake = "intake"
	// StageQueue covers the shard queue residency: accepted enqueue to
	// the worker picking the workflow up.
	StageQueue = "queue"
	// StagePlan covers initial planning: the analytic engine's full run,
	// or a live workflow's first schedule.
	StagePlan = "plan"
	// StageIngest covers one report batch folding into a live run
	// (history feed, variance judgement, triggered evaluations).
	StageIngest = "ingest"
	// StageEvaluate covers one rescheduling evaluation (the trigger
	// rides as an attribute).
	StageEvaluate = "evaluate"
	// StageAdopt marks an adopted reschedule bumping the plan
	// generation.
	StageAdopt = "adopt"
	// StageEnact marks a plan generation being handed to the enactor
	// (initial GET …/plan or the report-ack piggyback).
	StageEnact = "enact"
)

// Span is one completed operation on the decision path. Start/End are
// wall-clock Unix nanoseconds; the duration between them is derived
// from the monotonic clock (End = Start + monotonic elapsed), so span
// latencies are immune to wall-clock steps.
type Span struct {
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent_id,omitempty"`
	// Link is a causal cross-workflow edge: the span whose effect
	// triggered this one (contention evaluate → releasing finish).
	// LinkWorkflow names the workflow that span belongs to.
	Link         uint64 `json:"link_id,omitempty"`
	LinkWorkflow string `json:"link_workflow,omitempty"`
	Stage        string `json:"stage"`
	Workflow     string `json:"workflow,omitempty"`
	Tenant       string `json:"tenant,omitempty"`
	Grid         string `json:"grid,omitempty"`
	Shard        int    `json:"shard"`
	Start        int64  `json:"start_unix_ns"`
	End          int64  `json:"end_unix_ns"`

	// Decision attributes (evaluate/adopt spans).
	Trigger    string `json:"trigger,omitempty"`
	Adopted    bool   `json:"adopted,omitempty"`
	Generation int    `json:"generation,omitempty"`
	Err        string `json:"error,omitempty"`
}

// Options tunes a Tracer.
type Options struct {
	// MaxSpansPerWorkflow bounds the retained span log per workflow;
	// excess spans still roll into the stage windows and the sink but
	// are not retained for the trace endpoint (counted in Dropped).
	// 0 means 512.
	MaxSpansPerWorkflow int
	// Sink, when non-nil, receives every completed span as one
	// OTLP-shaped JSON line. Writes are buffered; Close flushes.
	Sink io.Writer
}

// Tracer collects spans. A nil *Tracer is a valid no-op: Start and Emit
// on nil return nil/0, so call sites pay one branch when tracing is
// off.
type Tracer struct {
	ids     atomic.Uint64
	spans   atomic.Uint64 // completed spans, total
	dropped atomic.Uint64 // spans not retained (per-workflow cap)
	maxPer  int

	mu  sync.Mutex
	wfs map[string]*wfSpans

	stageMu sync.Mutex
	stages  map[string]*stats.Window

	sinkMu sync.Mutex
	sink   *bufio.Writer
}

type wfSpans struct {
	spans []Span
	last  map[string]uint64 // latest span ID per stage, for causal links
}

// stageWindowCap bounds each stage's latency window, so /metrics stays
// O(1) over the daemon's lifetime.
const stageWindowCap = 4096

// New builds a tracer.
func New(opts Options) *Tracer {
	t := &Tracer{
		maxPer: opts.MaxSpansPerWorkflow,
		wfs:    make(map[string]*wfSpans),
		stages: make(map[string]*stats.Window),
	}
	if t.maxPer <= 0 {
		t.maxPer = 512
	}
	if opts.Sink != nil {
		t.sink = bufio.NewWriterSize(opts.Sink, 64<<10)
	}
	return t
}

// Active is an in-flight span: Start fills identity and the start
// timestamp; the caller sets attributes on Span and calls End. An
// Active may cross goroutines (the queue span starts on the intake
// handler and ends on the shard worker) as long as End happens-after
// the attribute writes.
type Active struct {
	t    *Tracer
	at   time.Time
	Span Span
}

// Start opens a span. On a nil tracer it returns nil (and End on a nil
// Active is a no-op), so instrumentation sites need no enabled-check.
func (t *Tracer) Start(stage, workflow string) *Active {
	if t == nil {
		return nil
	}
	a := &Active{t: t, at: time.Now()}
	a.Span.ID = t.ids.Add(1)
	a.Span.Stage = stage
	a.Span.Workflow = workflow
	a.Span.Start = a.at.UnixNano()
	return a
}

// End completes the span (monotonic duration) and files it, returning
// its ID for use as a parent or causal link.
func (a *Active) End() uint64 {
	if a == nil {
		return 0
	}
	d := time.Since(a.at)
	a.Span.End = a.Span.Start + d.Nanoseconds()
	a.t.record(a.Span, d)
	return a.Span.ID
}

// Fail records err on the span and completes it.
func (a *Active) Fail(err error) uint64 {
	if a == nil {
		return 0
	}
	if err != nil {
		a.Span.Err = err.Error()
	}
	return a.End()
}

// Emit files an already-elapsed span retroactively: the ID is assigned
// here, End is stamped now, and Start is back-dated by elapsed. Used
// for evaluations whose latency the kernel already measured — the span
// costs nothing on the measured path itself.
func (t *Tracer) Emit(s Span, elapsed time.Duration) uint64 {
	if t == nil {
		return 0
	}
	if elapsed < 0 {
		elapsed = 0
	}
	s.ID = t.ids.Add(1)
	s.End = time.Now().UnixNano()
	s.Start = s.End - elapsed.Nanoseconds()
	t.record(s, elapsed)
	return s.ID
}

func (t *Tracer) record(s Span, elapsed time.Duration) {
	t.spans.Add(1)

	t.stageMu.Lock()
	w := t.stages[s.Stage]
	if w == nil {
		w = &stats.Window{Cap: stageWindowCap}
		t.stages[s.Stage] = w
	}
	t.stageMu.Unlock()
	w.Record(elapsed.Seconds() * 1e3)

	if s.Workflow != "" {
		t.mu.Lock()
		ws := t.wfs[s.Workflow]
		if ws == nil {
			ws = &wfSpans{last: make(map[string]uint64)}
			t.wfs[s.Workflow] = ws
		}
		if len(ws.spans) < t.maxPer {
			ws.spans = append(ws.spans, s)
		} else {
			t.dropped.Add(1)
		}
		ws.last[s.Stage] = s.ID
		t.mu.Unlock()
	}

	if t.sink != nil {
		line := otlpLine(s)
		t.sinkMu.Lock()
		t.sink.Write(line)
		t.sinkMu.Unlock()
	}
}

// Spans returns a copy of the retained span log for one workflow, in
// completion order.
func (t *Tracer) Spans(workflow string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ws := t.wfs[workflow]
	if ws == nil {
		return nil
	}
	return append([]Span(nil), ws.spans...)
}

// LastSpan returns the ID of the workflow's most recent span of the
// given stage (0 if none) — the lookup causal links are built from.
func (t *Tracer) LastSpan(workflow, stage string) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ws := t.wfs[workflow]; ws != nil {
		return ws.last[stage]
	}
	return 0
}

// Release drops the retained spans of one workflow (called when the
// server evicts the workflow record, so trace memory has the same
// lifetime as status memory).
func (t *Tracer) Release(workflow string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.wfs, workflow)
	t.mu.Unlock()
}

// StageSummary rolls the per-stage windows up for /metrics.
func (t *Tracer) StageSummary() map[string]stats.Summary {
	if t == nil {
		return nil
	}
	t.stageMu.Lock()
	defer t.stageMu.Unlock()
	out := make(map[string]stats.Summary, len(t.stages))
	for stage, w := range t.stages {
		out[stage] = w.Summary()
	}
	return out
}

// Totals reports completed and dropped (not-retained) span counts.
func (t *Tracer) Totals() (spans, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	return t.spans.Load(), t.dropped.Load()
}

// Close flushes the sink (if any). The tracer stays usable; Close is
// for shutdown paths that must not lose buffered export lines.
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	t.sinkMu.Lock()
	defer t.sinkMu.Unlock()
	return t.sink.Flush()
}

// --- OTLP-shaped export ------------------------------------------------

type otlpVal struct {
	StringValue string `json:"stringValue,omitempty"`
	IntValue    string `json:"intValue,omitempty"`
	BoolValue   bool   `json:"boolValue,omitempty"`
}

type otlpKV struct {
	Key   string  `json:"key"`
	Value otlpVal `json:"value"`
}

type otlpLink struct {
	TraceID string `json:"traceId"`
	SpanID  string `json:"spanId"`
}

type otlpSpan struct {
	TraceID      string     `json:"traceId"`
	SpanID       string     `json:"spanId"`
	ParentSpanID string     `json:"parentSpanId,omitempty"`
	Name         string     `json:"name"`
	StartNano    string     `json:"startTimeUnixNano"`
	EndNano      string     `json:"endTimeUnixNano"`
	Attributes   []otlpKV   `json:"attributes,omitempty"`
	Links        []otlpLink `json:"links,omitempty"`
}

// TraceID derives the 16-byte hex trace identifier for a workflow: two
// FNV-1a digests of the ID, so all of one workflow's spans share a
// trace and the mapping is stable across restarts.
func TraceID(workflow string) string {
	h1 := fnv.New64a()
	h1.Write([]byte(workflow))
	h2 := fnv.New64a()
	h2.Write([]byte(workflow))
	h2.Write([]byte{0x9e})
	return fmt.Sprintf("%016x%016x", h1.Sum64(), h2.Sum64())
}

func spanIDHex(id uint64) string { return fmt.Sprintf("%016x", id) }

func otlpLine(s Span) []byte {
	o := otlpSpan{
		TraceID:   TraceID(s.Workflow),
		SpanID:    spanIDHex(s.ID),
		Name:      s.Stage,
		StartNano: strconv.FormatInt(s.Start, 10),
		EndNano:   strconv.FormatInt(s.End, 10),
	}
	if s.Parent != 0 {
		o.ParentSpanID = spanIDHex(s.Parent)
	}
	attr := func(k, v string) {
		if v != "" {
			o.Attributes = append(o.Attributes, otlpKV{Key: k, Value: otlpVal{StringValue: v}})
		}
	}
	attrInt := func(k string, v int64) {
		o.Attributes = append(o.Attributes, otlpKV{Key: k, Value: otlpVal{IntValue: strconv.FormatInt(v, 10)}})
	}
	attr("workflow", s.Workflow)
	attr("tenant", s.Tenant)
	attr("grid", s.Grid)
	attrInt("shard", int64(s.Shard))
	attr("trigger", s.Trigger)
	if s.Adopted {
		o.Attributes = append(o.Attributes, otlpKV{Key: "adopted", Value: otlpVal{BoolValue: true}})
	}
	if s.Generation > 0 {
		attrInt("generation", int64(s.Generation))
	}
	attr("error", s.Err)
	if s.Link != 0 {
		// Cross-workflow causal edge into the linked workflow's trace.
		lt := o.TraceID
		if s.LinkWorkflow != "" {
			lt = TraceID(s.LinkWorkflow)
		}
		o.Links = append(o.Links, otlpLink{TraceID: lt, SpanID: spanIDHex(s.Link)})
	}
	line, err := json.Marshal(o)
	if err != nil { // fixed struct of marshalable fields cannot fail
		panic(err)
	}
	return append(line, '\n')
}
