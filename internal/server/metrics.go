package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"time"

	"aheft/internal/admission"
	"aheft/internal/planner"
	"aheft/internal/stats"
	"aheft/internal/wire"
)

// Metrics is the daemon's signal set behind GET /metrics. The counters the
// daemon keeps as it runs are the fields of a MetricsDoc, so a counter is
// declared exactly once — as the document field both renderings derive
// from — and updated through count. Gauges read from other state (queue
// depths, histories, grids, durable stores, the tracer) are filled in by
// Server.MetricsSnapshot at read time.
type Metrics struct {
	start time.Time

	// mu guards c. A lock, not atomics: a MetricsDoc's uint64 fields are
	// not 64-bit aligned on 32-bit platforms. One lock for every counter
	// also keeps a related batch (a report's counts, a workflow's
	// close-out) consistent in a snapshot.
	mu sync.Mutex
	c  MetricsDoc

	compute    stats.Window // makespan-compute latency per successful analytic workflow
	admWait    stats.Window // fair-queue residency per admitted submission
	admInitial stats.Window // execution start → initial plan
	// resched holds one replan-latency window per planner.Trigger.
	resched [planner.NumTriggers]stats.Window
}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics {
	m := &Metrics{start: time.Now()}
	m.compute.Cap, m.admWait.Cap, m.admInitial.Cap = 8192, 8192, 4096
	for i := range m.resched {
		m.resched[i].Cap = 4096
	}
	perClass := func() map[string]uint64 {
		out := make(map[string]uint64, len(admission.ClassNames))
		for _, name := range admission.ClassNames {
			out[name] = 0
		}
		return out
	}
	a := &m.c.Admission
	a.AdmittedByClass, a.RejectedByClass = perClass(), perClass()
	return m
}

// count applies f to the counters under the lock.
func (m *Metrics) count(f func(c *MetricsDoc)) {
	m.mu.Lock()
	f(&m.c)
	m.mu.Unlock()
}

// className is the admission class a workflow is counted under.
func className(class string) string {
	ci, _ := admission.ClassIndex(class)
	return admission.ClassNames[ci]
}

// decided counts live rescheduling evaluations as they happen: each one
// into its trigger's latency window, adopted ones by trigger.
func (m *Metrics) decided(ds []planner.Decision) {
	for _, d := range ds {
		m.resched[d.Trigger].Record(d.ElapsedMs)
	}
	m.count(func(c *MetricsDoc) {
		c.Decisions += uint64(len(ds))
		for _, d := range ds {
			if d.Adopted {
				c.Reschedules++
				*c.adoptedBy(d.Trigger)++
			}
		}
	})
}

// inflightReserve moves the in-flight gauge up and maintains its peak.
// Callers reserve before enqueueing a workflow and roll back with
// inflightRelease if the enqueue is rejected.
func (m *Metrics) inflightReserve() {
	m.count(func(c *MetricsDoc) {
		c.Inflight++
		c.InflightPeak = max(c.InflightPeak, c.Inflight)
	})
}

// inflightRelease undoes a reservation whose enqueue was rejected.
func (m *Metrics) inflightRelease() { m.count(func(c *MetricsDoc) { c.Inflight-- }) }

// inflight reads the in-flight gauge.
func (m *Metrics) inflight() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c.Inflight
}

// terminal counts one workflow reaching a terminal state.
func (c *MetricsDoc) terminal(failed bool) {
	if failed {
		c.Failed++
	} else {
		c.Completed++
	}
	c.Inflight--
}

// adoptedBy is the adopted-reschedule counter of trigger t.
func (c *MetricsDoc) adoptedBy(t planner.Trigger) *uint64 {
	return [planner.NumTriggers]*uint64{
		planner.TriggerArrival:    &c.ReschedulesArrival,
		planner.TriggerVariance:   &c.ReschedulesVariance,
		planner.TriggerDeparture:  &c.ReschedulesDeparture,
		planner.TriggerContention: &c.ReschedulesContention,
	}[t]
}

// snapshot copies the counters and summarises the latency windows; the
// caller fills in the gauges kept elsewhere.
func (m *Metrics) snapshot() MetricsDoc {
	m.mu.Lock()
	doc := m.c
	a := &doc.Admission
	a.AdmittedByClass, a.RejectedByClass = maps.Clone(a.AdmittedByClass), maps.Clone(a.RejectedByClass)
	m.mu.Unlock()
	doc.UptimeS = time.Since(m.start).Seconds()
	doc.RescheduleMs = make(TriggerMs, len(m.resched))
	for i, name := range planner.TriggerNames {
		doc.RescheduleMs[name] = m.resched[i].Summary()
	}
	a.WaitMs, a.InitialMs = m.admWait.Summary(), m.admInitial.Summary()
	doc.ComputeMs = m.compute.Summary()
	return doc
}

// MetricsDoc is GET /metrics, and the one declaration of every signal the
// daemon exports. The JSON document is this struct; the Prometheus
// exposition (writePrometheus) is derived from the same fields. A field's
// prom tag names its family (aheft_ prefixed) and its help tag the HELP
// line; a field without a prom tag is JSON-only. The family type follows
// the Go type: uint64 is a counter; int, int64 and float64 are gauges; a
// LatencyMs is a summary. A map or slice is one sample per key or index,
// labelled by its label tag. label:"k=v" on a scalar files it under that
// label: adjacent scalars of one counter or gauge family share a header
// (in label order), while a summary repeats its header per label. A prom
// tag ending in ",next" emits its family after the next field's: the two
// renderings order the admission queue depth and drain rate differently,
// and TestMetricsWireGolden pins both orders.
type MetricsDoc struct {
	UptimeS float64 `json:"uptime_s" prom:"uptime_seconds" help:"Daemon uptime."`
	Shards  int     `json:"shards" prom:"shards" help:"Configured shard workers."`

	// Submission path.
	Submissions     uint64 `json:"submissions" prom:"submissions_total" help:"Workflow submission requests."`
	Accepted        uint64 `json:"accepted" prom:"accepted_total" help:"Submissions enqueued to a shard."`
	RejectedFull    uint64 `json:"rejected_backpressure" prom:"rejected_backpressure_total" help:"Submissions rejected by a full shard queue."`
	RejectedInvalid uint64 `json:"rejected_invalid" prom:"rejected_invalid_total" help:"Malformed or oversized submissions."`
	RejectedDrain   uint64 `json:"rejected_draining" prom:"rejected_draining_total" help:"Submissions rejected while draining."`
	AbandonedIntake uint64 `json:"abandoned_intake" prom:"abandoned_intake_total" help:"Clients gone while awaiting an intake slot."`

	// Execution path.
	Completed   uint64 `json:"completed" prom:"completed_total" help:"Workflows completed successfully."`
	Failed      uint64 `json:"failed" prom:"failed_total" help:"Workflows that failed or were cancelled."`
	Decisions   uint64 `json:"decisions" prom:"decisions_total" help:"Rescheduling evaluations."`
	Reschedules uint64 `json:"reschedules" prom:"reschedules_total" help:"Adopted reschedules."`
	Evicted     uint64 `json:"evicted" prom:"evicted_total" help:"Terminal records evicted by the retention cap."`

	// Feedback loop (live workflows).
	Reports          uint64 `json:"reports" prom:"reports_total" help:"Accepted report batches."`
	ReportEvents     uint64 `json:"report_events" prom:"report_events_total" help:"Run-time events folded into live runs."`
	ReportsRejected  uint64 `json:"reports_rejected" prom:"reports_rejected_total" help:"Rejected report requests."`
	ReportsDuplicate uint64 `json:"reports_duplicate" prom:"reports_duplicate_total" help:"Replayed batches acked idempotently."`
	WhatIfQueries    uint64 `json:"whatif_queries" prom:"whatif_queries_total" help:"Answered what-if queries."`
	// Adopted reschedules by trigger: contention is a shared-grid survivor
	// taking capacity another workflow released.
	ReschedulesVariance   uint64    `json:"reschedules_variance" prom:"reschedules_by_trigger_total" label:"trigger=variance" help:"Adopted reschedules by trigger."`
	ReschedulesArrival    uint64    `json:"reschedules_arrival" prom:"reschedules_by_trigger_total" label:"trigger=arrival"`
	ReschedulesDeparture  uint64    `json:"reschedules_departure" prom:"reschedules_by_trigger_total" label:"trigger=departure"`
	ReschedulesContention uint64    `json:"reschedules_contention" prom:"reschedules_by_trigger_total" label:"trigger=contention"`
	RescheduleMs          TriggerMs `json:"reschedule_ms" prom:"reschedule_ms" label:"trigger" help:"Replan wall-clock latency by trigger (ms)."`
	// Admission is the weighted-fair-queue intake state.
	Admission      AdmissionDoc `json:"admission"`
	LiveResident   int64        `json:"live_resident" prom:"live_resident" help:"Live workflows parked on shards."`
	HistoryTenants int          `json:"history_tenants" prom:"history_tenants" help:"Tenant performance-history repositories."`
	HistoryCells   int          `json:"history_cells" prom:"history_cells" help:"Performance-history cells across tenants."`
	HistoryEvicted uint64       `json:"history_evicted" prom:"history_evicted_total" help:"Tenant repositories dropped by the LRU cap."`
	// Shared-grid gauges. Both reservation counts must drain to zero with
	// the last workflow on a grid.
	SharedGrids          int `json:"shared_grids" prom:"shared_grids" help:"Registered shared grids."`
	Reservations         int `json:"reservations" prom:"reservations" help:"Live reservations across shared grids."`
	TransferReservations int `json:"transfer_reservations" prom:"transfer_reservations" help:"Live transfer reservations across shared-grid capacity channels."`

	EventsEmitted uint64 `json:"events_emitted" prom:"events_emitted_total" help:"Scheduling events appended to workflow logs."`
	EventsDropped uint64 `json:"events_dropped" prom:"events_dropped_total" help:"Events lost to slow SSE subscribers."`

	// Durability (all zero when Config.DataDir is empty). WALErrors counts
	// failed appends and rotations (durability degraded);
	// WALRecordsSkipped the journal records the last recovery could not
	// use, each logged with its LSN.
	WALAppends         uint64  `json:"wal_appends" prom:"wal_appends_total" help:"WAL records appended."`
	WALBytes           uint64  `json:"wal_bytes" prom:"wal_bytes_total" help:"WAL bytes appended."`
	Snapshots          uint64  `json:"snapshots" prom:"snapshots_total" help:"Durability snapshots written."`
	WALErrors          uint64  `json:"wal_errors" prom:"wal_errors_total" help:"Failed WAL appends or rotations."`
	WALRecordsSkipped  uint64  `json:"wal_records_skipped" prom:"wal_records_skipped_total" help:"Journal records the last recovery could not use."`
	RecoveredWorkflows uint64  `json:"recovered_workflows" prom:"recovered_workflows_total" help:"Live workflows restored by the last recovery."`
	RecoveryMs         float64 `json:"recovery_ms"`

	// Observability: the causal tracer's span totals and per-stage
	// latency (zero or absent when tracing is off), and the flight
	// recorder's appends (zero when recording is off).
	TraceSpans        uint64               `json:"trace_spans" prom:"trace_spans_total" help:"Completed causal-tracer spans."`
	TraceSpansDropped uint64               `json:"trace_spans_dropped" prom:"trace_spans_dropped_total" help:"Spans not retained (per-workflow cap)."`
	TraceStageMs      map[string]LatencyMs `json:"trace_stage_ms,omitempty" prom:"trace_stage_ms" label:"stage" help:"Decision-path stage latency (ms)."`
	RecorderRecords   uint64               `json:"recorder_records" prom:"recorder_records_total" help:"Flight-recorder records appended."`
	RecorderErrors    uint64               `json:"recorder_errors" prom:"recorder_errors_total" help:"Failed flight-recorder appends."`

	Inflight     int64 `json:"inflight" prom:"inflight" help:"Accepted minus terminal workflows."`
	InflightPeak int64 `json:"inflight_peak" prom:"inflight_peak" help:"In-flight high-water mark."`
	QueueDepth   []int `json:"queue_depth" prom:"queue_depth" label:"shard" help:"Per-shard intake queue depth."`

	ComputeMs LatencyMs `json:"compute_ms" prom:"compute_ms" help:"Makespan-compute latency per workflow (ms)."`
}

// AdmissionDoc is the admission subsystem's /metrics section: per-class
// counts (admitted into a fair queue, 429ed by the backlog bounds), the
// per-tenant backlog summed across shards, the EWMA drain rate behind
// every Retry-After, and the latency windows.
type AdmissionDoc struct {
	AdmittedByClass    map[string]uint64 `json:"admitted_by_class" prom:"admission_admitted_total" label:"class" help:"Submissions admitted into the fair queue by class."`
	RejectedByClass    map[string]uint64 `json:"rejected_by_class" prom:"admission_rejected_total" label:"class" help:"Submissions rejected by the backlog bounds by class."`
	QueueDepthByTenant map[string]int    `json:"queue_depth_by_tenant,omitempty" prom:"admission_queue_depth,next" label:"tenant" help:"Queued submissions per tenant."`
	DrainRatePerS      float64           `json:"drain_rate_per_s" prom:"admission_drain_rate_per_s" help:"EWMA admission dequeue rate across shards."`
	WaitMs             LatencyMs         `json:"wait_ms" prom:"admission_wait_ms" help:"Fair-queue residency per admitted submission (ms)."`
	InitialMs          LatencyMs         `json:"initial_ms" prom:"admission_initial_ms" help:"Execution-start-to-initial-plan latency of live workflows (ms)."`
}

// LatencyMs summarises one latency window in milliseconds.
type LatencyMs = stats.Summary

// TriggerMs is the per-trigger replan latency; Prometheus lists it in
// planner.TriggerNames order.
type TriggerMs map[string]LatencyMs

func (TriggerMs) keys() []string { return planner.TriggerNames[:] }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// respBufs recycles the buffers writeAppended encodes into: an adopting
// ack is tens of kilobytes, and one buffer per request would be garbage at
// the report rate.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeAppended answers 200 with the document one of wire's append
// encoders produces for v, through m's memo under its lock when m is not
// nil: compact JSON, Content-Length set, a single Write. Only the report
// ack and the plan go this way — the documents of the report loop's hot
// path; a value the encoder refuses (a non-finite number, which no adopted
// plan carries) is a 500 like any other bug.
func writeAppended[T any](w http.ResponseWriter, v *T, m *ackMemo, enc func([]byte, *T, *wire.AckMemo) ([]byte, error)) {
	bp := respBufs.Get().(*[]byte)
	defer respBufs.Put(bp)
	var memo *wire.AckMemo
	if m != nil {
		m.mu.Lock()
		memo = &m.memo
	}
	b, err := enc((*bp)[:0], v, memo)
	if m != nil {
		m.mu.Unlock()
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
		return
	}
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write means the client left; nobody to tell
}
