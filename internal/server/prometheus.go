package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"aheft/internal/planner"
)

// Prometheus text exposition for GET /metrics (satellite of the
// observability layer): the same MetricsDoc the JSON form serialises,
// rendered in the text format a Prometheus scraper ingests natively.
// Selected with ?format=prometheus, or by content negotiation when the
// Accept header asks for text/plain or OpenMetrics (a scraper's default
// Accept does; a browser's or curl's does not, so the human-facing JSON
// stays the default).

func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// promWriter accumulates one exposition document. Metric names carry
// the aheft_ prefix; HELP/TYPE headers precede each family.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) counter(name, help string, v uint64) {
	fmt.Fprintf(&p.b, "# HELP aheft_%s %s\n# TYPE aheft_%s counter\naheft_%s %d\n", name, help, name, name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	fmt.Fprintf(&p.b, "# HELP aheft_%s %s\n# TYPE aheft_%s gauge\naheft_%s %g\n", name, help, name, name, v)
}

// labeled emits one family of counter samples keyed by a single label,
// in sorted label order so scrapes are byte-stable.
func (p *promWriter) labeled(name, help, label string, vals map[string]uint64) {
	fmt.Fprintf(&p.b, "# HELP aheft_%s %s\n# TYPE aheft_%s counter\n", name, help, name)
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&p.b, "aheft_%s{%s=%q} %d\n", name, label, k, vals[k])
	}
}

// summary emits a latency window as a summary family: quantile samples
// plus the _count (the window's total, not a sum of buckets).
func (p *promWriter) summary(name, help, label, key string, count uint64, p50, p90, p99 float64) {
	lbl := ""
	if label != "" {
		lbl = fmt.Sprintf("%s=%q,", label, key)
	}
	fmt.Fprintf(&p.b, "# HELP aheft_%s %s\n# TYPE aheft_%s summary\n", name, help, name)
	fmt.Fprintf(&p.b, "aheft_%s{%squantile=\"0.5\"} %g\n", name, lbl, p50)
	fmt.Fprintf(&p.b, "aheft_%s{%squantile=\"0.9\"} %g\n", name, lbl, p90)
	fmt.Fprintf(&p.b, "aheft_%s{%squantile=\"0.99\"} %g\n", name, lbl, p99)
	if label != "" {
		fmt.Fprintf(&p.b, "aheft_%s_count{%s=%q} %d\n", name, label, key, count)
	} else {
		fmt.Fprintf(&p.b, "aheft_%s_count %d\n", name, count)
	}
}

func writePrometheus(w http.ResponseWriter, doc MetricsDoc) {
	p := &promWriter{}
	p.gauge("uptime_seconds", "Daemon uptime.", doc.UptimeS)
	p.gauge("shards", "Configured shard workers.", float64(doc.Shards))

	p.counter("submissions_total", "Workflow submission requests.", doc.Submissions)
	p.counter("accepted_total", "Submissions enqueued to a shard.", doc.Accepted)
	p.counter("rejected_backpressure_total", "Submissions rejected by a full shard queue.", doc.RejectedFull)
	p.counter("rejected_invalid_total", "Malformed or oversized submissions.", doc.RejectedInvalid)
	p.counter("rejected_draining_total", "Submissions rejected while draining.", doc.RejectedDrain)
	p.counter("abandoned_intake_total", "Clients gone while awaiting an intake slot.", doc.AbandonedIntake)

	p.counter("completed_total", "Workflows completed successfully.", doc.Completed)
	p.counter("failed_total", "Workflows that failed or were cancelled.", doc.Failed)
	p.counter("decisions_total", "Rescheduling evaluations.", doc.Decisions)
	p.counter("reschedules_total", "Adopted reschedules.", doc.Reschedules)
	p.counter("evicted_total", "Terminal records evicted by the retention cap.", doc.Evicted)

	p.counter("reports_total", "Accepted report batches.", doc.Reports)
	p.counter("report_events_total", "Run-time events folded into live runs.", doc.ReportEvents)
	p.counter("reports_rejected_total", "Rejected report requests.", doc.ReportsRejected)
	p.counter("reports_duplicate_total", "Replayed batches acked idempotently.", doc.ReportsDuplicate)
	p.counter("whatif_queries_total", "Answered what-if queries.", doc.WhatIfQueries)
	p.labeled("reschedules_by_trigger_total", "Adopted reschedules by trigger.", "trigger", map[string]uint64{
		"variance":   doc.ReschedulesVariance,
		"arrival":    doc.ReschedulesArrival,
		"departure":  doc.ReschedulesDeparture,
		"contention": doc.ReschedulesContention,
		"upgrade":    doc.ReschedulesUpgrade,
	})
	for _, trig := range planner.TriggerNames {
		if s, ok := doc.RescheduleMs[trig]; ok {
			p.summary("reschedule_ms", "Replan wall-clock latency by trigger (ms).", "trigger", trig, s.Count, s.P50, s.P90, s.P99)
		}
	}

	p.labeled("admission_admitted_total", "Submissions admitted into the fair queue by class.", "class", doc.Admission.AdmittedByClass)
	p.labeled("admission_fast_path_total", "Fast-path (greedy initial plan) admissions by class.", "class", doc.Admission.FastPathByClass)
	p.labeled("admission_upgraded_total", "Fast-path plans upgraded to the full policy by class.", "class", doc.Admission.UpgradedByClass)
	p.labeled("admission_rejected_total", "Submissions rejected by the backlog bounds by class.", "class", doc.Admission.RejectedByClass)
	p.gauge("admission_drain_rate_per_s", "EWMA admission dequeue rate across shards.", doc.Admission.DrainRatePerS)
	fmt.Fprintf(&p.b, "# HELP aheft_admission_queue_depth Queued submissions per tenant.\n# TYPE aheft_admission_queue_depth gauge\n")
	tenants := make([]string, 0, len(doc.Admission.QueueDepthByTenant))
	for tenant := range doc.Admission.QueueDepthByTenant {
		tenants = append(tenants, tenant)
	}
	sort.Strings(tenants)
	for _, tenant := range tenants {
		fmt.Fprintf(&p.b, "aheft_admission_queue_depth{tenant=%q} %d\n", tenant, doc.Admission.QueueDepthByTenant[tenant])
	}
	p.summary("admission_wait_ms", "Fair-queue residency per admitted submission (ms).", "", "", doc.Admission.WaitMs.Count, doc.Admission.WaitMs.P50, doc.Admission.WaitMs.P90, doc.Admission.WaitMs.P99)
	p.summary("admission_initial_ms", "Submit-to-initial-plan latency by path (ms).", "path", "fast", doc.Admission.FastInitialMs.Count, doc.Admission.FastInitialMs.P50, doc.Admission.FastInitialMs.P90, doc.Admission.FastInitialMs.P99)
	p.summary("admission_initial_ms", "Submit-to-initial-plan latency by path (ms).", "path", "full", doc.Admission.FullInitialMs.Count, doc.Admission.FullInitialMs.P50, doc.Admission.FullInitialMs.P90, doc.Admission.FullInitialMs.P99)

	p.gauge("live_resident", "Live workflows parked on shards.", float64(doc.LiveResident))
	p.gauge("history_tenants", "Tenant performance-history repositories.", float64(doc.HistoryTenants))
	p.gauge("history_cells", "Performance-history cells across tenants.", float64(doc.HistoryCells))
	p.counter("history_evicted_total", "Tenant repositories dropped by the LRU cap.", doc.HistoryEvicted)
	p.gauge("shared_grids", "Registered shared grids.", float64(doc.SharedGrids))
	p.gauge("reservations", "Live reservations across shared grids.", float64(doc.Reservations))
	p.gauge("transfer_reservations", "Live transfer reservations across shared-grid capacity channels.", float64(doc.TransferReservations))

	p.counter("events_emitted_total", "Scheduling events appended to workflow logs.", doc.EventsEmitted)
	p.counter("events_dropped_total", "Events lost to slow SSE subscribers.", doc.EventsDropped)

	p.counter("wal_appends_total", "WAL records appended.", doc.WALAppends)
	p.counter("wal_bytes_total", "WAL bytes appended.", doc.WALBytes)
	p.counter("snapshots_total", "Durability snapshots written.", doc.Snapshots)
	p.counter("wal_errors_total", "Failed WAL appends or rotations.", doc.WALErrors)
	p.counter("wal_records_skipped_total", "Journal records the last recovery could not use.", doc.WALRecordsSkipped)
	p.counter("recovered_workflows_total", "Live workflows restored by the last recovery.", doc.RecoveredWorkflows)

	p.counter("trace_spans_total", "Completed causal-tracer spans.", doc.TraceSpans)
	p.counter("trace_spans_dropped_total", "Spans not retained (per-workflow cap).", doc.TraceSpansDropped)
	stages := make([]string, 0, len(doc.TraceStageMs))
	for stage := range doc.TraceStageMs {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	for _, stage := range stages {
		s := doc.TraceStageMs[stage]
		p.summary("trace_stage_ms", "Decision-path stage latency (ms).", "stage", stage, s.Count, s.P50, s.P90, s.P99)
	}
	p.counter("recorder_records_total", "Flight-recorder records appended.", doc.RecorderRecords)
	p.counter("recorder_errors_total", "Failed flight-recorder appends.", doc.RecorderErrors)

	p.gauge("inflight", "Accepted minus terminal workflows.", float64(doc.Inflight))
	p.gauge("inflight_peak", "In-flight high-water mark.", float64(doc.InflightPeak))
	fmt.Fprintf(&p.b, "# HELP aheft_queue_depth Per-shard intake queue depth.\n# TYPE aheft_queue_depth gauge\n")
	for i, d := range doc.QueueDepth {
		fmt.Fprintf(&p.b, "aheft_queue_depth{shard=\"%d\"} %d\n", i, d)
	}
	p.summary("compute_ms", "Makespan-compute latency per workflow (ms).", "", "", doc.ComputeMs.Count, doc.ComputeMs.P50, doc.ComputeMs.P90, doc.ComputeMs.P99)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(p.b.String()))
}
