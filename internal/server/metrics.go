package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aheft/internal/admission"
	"aheft/internal/obs"
	"aheft/internal/planner"
	"aheft/internal/stats"
)

// Metrics is the daemon's counter set, exposed as an expvar-style JSON
// document on GET /metrics. All counters are monotonic atomics; gauges
// (queue depth, in-flight) are computed at read time from authoritative
// state, except the in-flight high-water mark which is tracked on the
// submission path.
type Metrics struct {
	start time.Time

	// Submission path.
	submissions     atomic.Uint64 // POST /v1/workflows requests
	accepted        atomic.Uint64 // enqueued to a shard
	rejectedFull    atomic.Uint64 // 429: shard queue full
	rejectedInvalid atomic.Uint64 // 400: malformed/oversized submission
	rejectedDrain   atomic.Uint64 // 503: submitted while draining
	abandonedIntake atomic.Uint64 // client gone while awaiting an intake slot

	// Execution path.
	completed   atomic.Uint64
	failed      atomic.Uint64
	decisions   atomic.Uint64 // rescheduling evaluations across all workflows
	reschedules atomic.Uint64 // adopted reschedules
	evicted     atomic.Uint64 // terminal records dropped by the retention cap

	// Feedback loop (live workflows).
	reports           atomic.Uint64 // accepted report batches
	reportEvents      atomic.Uint64 // run-time events folded into live runs
	reportsRejected   atomic.Uint64 // 400/409 report requests
	reportsDuplicate  atomic.Uint64 // post-restart replays acked idempotently
	whatifs           atomic.Uint64 // answered what-if queries
	reschedVariance   atomic.Uint64 // adopted reschedules by trigger
	reschedArrival    atomic.Uint64
	reschedDeparture  atomic.Uint64
	reschedContention atomic.Uint64 // cross-workflow (shared-grid) reschedules
	reschedUpgrade    atomic.Uint64 // fast-path plans upgraded to the full policy
	liveResident      atomic.Int64  // live workflows parked on shards
	historyEvicted    atomic.Uint64 // tenant repositories dropped by the LRU cap

	// Admission path (internal/admission): per-class counters indexed by
	// admission.ClassIndex, the queue-wait window, and the two-speed
	// submit-to-initial-plan windows (fast greedy vs full policy).
	admAdmitted      [3]atomic.Uint64
	admFastPath      [3]atomic.Uint64
	admUpgraded      [3]atomic.Uint64
	admRejected      [3]atomic.Uint64
	admWaitMs        latencyWindow // fair-queue residency per admitted submission
	admInitialFastMs latencyWindow // submit → initial plan, fast path (greedy)
	admInitialFullMs latencyWindow // submit → initial plan, full policy

	// reschedLat holds one replan-latency window per planner.Trigger.
	reschedLat [planner.NumTriggers]latencyWindow

	// Event path.
	eventsEmitted atomic.Uint64
	eventsDropped atomic.Uint64 // events lost to a slow SSE subscriber

	// Durability path. Appends/bytes/snapshots live on the durable
	// stores (see Server.MetricsSnapshot); only failures are counted
	// here.
	walErrors atomic.Uint64 // failed WAL appends/rotations (durability degraded)
	// walSkipped counts journal records the last recovery could not use
	// (undecodable payload, unknown kind); each is logged with its LSN.
	walSkipped atomic.Uint64

	// Flight recorder (Config.RecordDir; see record.go).
	recorderRecords atomic.Uint64 // records appended across all shard streams
	recorderErrors  atomic.Uint64 // failed appends (recording degraded)

	inflight     atomic.Int64 // accepted - completed - failed
	inflightPeak atomic.Int64

	compute latencyWindow // makespan-compute latency per workflow
}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics {
	m := &Metrics{
		start:            time.Now(),
		compute:          latencyWindow{cap: 8192},
		admWaitMs:        latencyWindow{cap: 8192},
		admInitialFastMs: latencyWindow{cap: 4096},
		admInitialFullMs: latencyWindow{cap: 4096},
	}
	for i := range m.reschedLat {
		m.reschedLat[i].cap = 4096
	}
	return m
}

// recordDecision folds one live rescheduling evaluation into the
// trigger's latency window. Called on the owning shard's goroutine (the
// windows are internally locked).
func (m *Metrics) recordDecision(d planner.Decision) {
	if t := int(d.Trigger); t >= 0 && t < len(m.reschedLat) {
		m.reschedLat[t].record(d.ElapsedMs)
	}
}

// inflightReserve moves the in-flight gauge up and maintains its peak.
// Callers reserve before enqueueing a workflow and roll back with
// inflightRelease if the enqueue is rejected.
func (m *Metrics) inflightReserve() {
	cur := m.inflight.Add(1)
	for {
		peak := m.inflightPeak.Load()
		if cur <= peak || m.inflightPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// inflightRelease undoes a reservation whose enqueue was rejected.
func (m *Metrics) inflightRelease() { m.inflight.Add(-1) }

func (m *Metrics) workflowDone(failed bool, computeDur time.Duration, decisions, adoptions int) {
	if failed {
		m.failed.Add(1)
	} else {
		m.completed.Add(1)
		// Only successful runs contribute latency samples: a failed or
		// force-cancelled workflow aborts near-instantly and would drag
		// the compute percentiles toward zero.
		m.compute.record(computeDur.Seconds() * 1e3)
	}
	m.inflight.Add(-1)
	m.decisions.Add(uint64(decisions))
	m.reschedules.Add(uint64(adoptions))
}

// liveWorkflowDone closes out a live workflow's gauges. Unlike
// workflowDone it records no compute-latency sample — a live run's wall
// time is paced by its reporting client, not by the engine — and no
// decision counts, which the report path already tallied as they
// happened.
func (m *Metrics) liveWorkflowDone(failed bool) {
	if failed {
		m.failed.Add(1)
	} else {
		m.completed.Add(1)
	}
	m.inflight.Add(-1)
}

// latencyWindow keeps the last cap latency samples (milliseconds) for
// percentile queries. A bounded window keeps /metrics O(1) in memory over
// an arbitrarily long daemon lifetime while still reflecting current
// behaviour.
type latencyWindow struct {
	mu    sync.Mutex
	cap   int
	buf   []float64
	next  int
	total uint64
}

func (w *latencyWindow) record(ms float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) < w.cap {
		w.buf = append(w.buf, ms)
	} else {
		w.buf[w.next] = ms
		w.next = (w.next + 1) % w.cap
	}
	w.total++
}

// quantiles returns the requested quantiles (0..1) over the window, or
// zeros when empty. stats.Quantiles copies before sorting, so handing it
// the live buffer under the lock is safe and avoids a second copy.
func (w *latencyWindow) quantiles(qs ...float64) []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return stats.Quantiles(w.buf, qs...)
}

func (w *latencyWindow) count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// MetricsDoc is the JSON shape of GET /metrics.
type MetricsDoc struct {
	UptimeS float64 `json:"uptime_s"`
	Shards  int     `json:"shards"`

	Submissions     uint64 `json:"submissions"`
	Accepted        uint64 `json:"accepted"`
	RejectedFull    uint64 `json:"rejected_backpressure"`
	RejectedInvalid uint64 `json:"rejected_invalid"`
	RejectedDrain   uint64 `json:"rejected_draining"`
	AbandonedIntake uint64 `json:"abandoned_intake"`

	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Decisions   uint64 `json:"decisions"`
	Reschedules uint64 `json:"reschedules"`
	Evicted     uint64 `json:"evicted"`

	// Feedback loop (live workflows).
	Reports              uint64 `json:"reports"`
	ReportEvents         uint64 `json:"report_events"`
	ReportsRejected      uint64 `json:"reports_rejected"`
	ReportsDuplicate     uint64 `json:"reports_duplicate"`
	WhatIfQueries        uint64 `json:"whatif_queries"`
	ReschedulesVariance  uint64 `json:"reschedules_variance"`
	ReschedulesArrival   uint64 `json:"reschedules_arrival"`
	ReschedulesDeparture uint64 `json:"reschedules_departure"`
	// ReschedulesContention counts adopted cross-workflow reschedules:
	// a shared-grid survivor taking capacity another workflow released.
	ReschedulesContention uint64 `json:"reschedules_contention"`
	// ReschedulesUpgrade counts adopted two-speed upgrades: a fast-path
	// greedy initial plan replaced by the submission's full policy.
	ReschedulesUpgrade uint64 `json:"reschedules_upgrade"`
	// RescheduleMs summarises replan wall-clock latency per trigger
	// (keyed by planner.TriggerNames).
	RescheduleMs map[string]LatencyMs `json:"reschedule_ms"`
	// Admission is the weighted-fair-queue intake state: per-class
	// counters, per-tenant backlog, drain rate and the two-speed
	// admission-latency windows.
	Admission      AdmissionDoc `json:"admission"`
	LiveResident   int64        `json:"live_resident"`
	HistoryTenants int          `json:"history_tenants"`
	HistoryCells   int          `json:"history_cells"`
	HistoryEvicted uint64       `json:"history_evicted"`
	// SharedGrids / Reservations are the shared-grid gauges: registered
	// grids, and the aggregate live reservation count across them.
	SharedGrids  int `json:"shared_grids"`
	Reservations int `json:"reservations"`
	// TransferReservations is the aggregate live transfer-reservation
	// count across every grid's capacity channels (data-aware workflows);
	// like Reservations it must drain to zero with the last workflow.
	TransferReservations int `json:"transfer_reservations"`

	EventsEmitted uint64 `json:"events_emitted"`
	EventsDropped uint64 `json:"events_dropped"`

	// Durability (all zero when Config.DataDir is empty): WAL record and
	// byte counts, snapshot rotations, failed appends, and what the last
	// startup recovery restored and how long it took.
	WALAppends         uint64  `json:"wal_appends"`
	WALBytes           uint64  `json:"wal_bytes"`
	Snapshots          uint64  `json:"snapshots"`
	WALErrors          uint64  `json:"wal_errors"`
	WALRecordsSkipped  uint64  `json:"wal_records_skipped"`
	RecoveredWorkflows uint64  `json:"recovered_workflows"`
	RecoveryMs         float64 `json:"recovery_ms"`

	// Observability: span totals and per-stage latency rollups from the
	// causal tracer (zero/absent when tracing is off), and the flight
	// recorder's append counters (zero when recording is off).
	TraceSpans        uint64                    `json:"trace_spans"`
	TraceSpansDropped uint64                    `json:"trace_spans_dropped"`
	TraceStageMs      map[string]obs.StageStats `json:"trace_stage_ms,omitempty"`
	RecorderRecords   uint64                    `json:"recorder_records"`
	RecorderErrors    uint64                    `json:"recorder_errors"`

	Inflight     int64 `json:"inflight"`
	InflightPeak int64 `json:"inflight_peak"`
	QueueDepth   []int `json:"queue_depth"`

	ComputeMs LatencyMs `json:"compute_ms"`
}

// AdmissionDoc is the admission subsystem's /metrics section.
type AdmissionDoc struct {
	// AdmittedByClass / FastPathByClass / UpgradedByClass /
	// RejectedByClass count submissions per priority class: admitted
	// into a fair queue, served via the fast (greedy) path, upgraded to
	// their full policy, and 429ed by the backlog bounds.
	AdmittedByClass map[string]uint64 `json:"admitted_by_class"`
	FastPathByClass map[string]uint64 `json:"fast_path_by_class"`
	UpgradedByClass map[string]uint64 `json:"upgraded_by_class"`
	RejectedByClass map[string]uint64 `json:"rejected_by_class"`
	// QueueDepthByTenant is the live backlog per tenant, summed across
	// shards (backlogged tenants only).
	QueueDepthByTenant map[string]int `json:"queue_depth_by_tenant,omitempty"`
	// DrainRatePerS is the EWMA dequeue rate summed across shards — the
	// denominator behind every Retry-After the daemon hands out.
	DrainRatePerS float64 `json:"drain_rate_per_s"`
	// WaitMs is fair-queue residency per admitted submission;
	// FastInitialMs / FullInitialMs are submit-to-initial-plan latency
	// for fast-path and full-policy live admissions — under overload the
	// fast window's p99 must undercut the full window's.
	WaitMs        LatencyMs `json:"wait_ms"`
	FastInitialMs LatencyMs `json:"fast_initial_ms"`
	FullInitialMs LatencyMs `json:"full_initial_ms"`
}

// AdmissionGauges carries the aggregated controller gauges into
// Metrics.snapshot.
type AdmissionGauges struct {
	PerTenant map[string]int
	DrainRate float64
}

// ObsStats carries the tracer's aggregated gauges into Metrics.snapshot.
type ObsStats struct {
	Spans   uint64
	Dropped uint64
	Stages  map[string]obs.StageStats
}

// DurabilityStats carries the aggregated per-store WAL gauges into
// Metrics.snapshot.
type DurabilityStats struct {
	WALAppends uint64
	WALBytes   uint64
	Snapshots  uint64
	Recovered  uint64
	RecoveryMs float64
}

// LatencyMs summarises one latency window: the sample count over the
// daemon's lifetime and quantiles (milliseconds) over the retained window.
type LatencyMs struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// snapshot assembles the document; queueDepth supplies the current
// per-shard queue lengths, historyTenants/historyCells the aggregated
// tenant-repository gauges.
func (m *Metrics) snapshot(queueDepth []int, historyTenants, historyCells, sharedGrids, reservations, transferReservations int, adm AdmissionGauges, d DurabilityStats, o ObsStats) MetricsDoc {
	byClass := func(c *[3]atomic.Uint64) map[string]uint64 {
		out := make(map[string]uint64, len(admission.ClassNames))
		for i, name := range admission.ClassNames {
			out[name] = c[i].Load()
		}
		return out
	}
	winDoc := func(w *latencyWindow) LatencyMs {
		lq := w.quantiles(0.50, 0.90, 0.99)
		return LatencyMs{Count: w.count(), P50: lq[0], P90: lq[1], P99: lq[2]}
	}
	resched := make(map[string]LatencyMs, len(m.reschedLat))
	for i, name := range planner.TriggerNames {
		resched[name] = winDoc(&m.reschedLat[i])
	}
	return MetricsDoc{
		UptimeS:               time.Since(m.start).Seconds(),
		Shards:                len(queueDepth),
		Submissions:           m.submissions.Load(),
		Accepted:              m.accepted.Load(),
		RejectedFull:          m.rejectedFull.Load(),
		RejectedInvalid:       m.rejectedInvalid.Load(),
		RejectedDrain:         m.rejectedDrain.Load(),
		AbandonedIntake:       m.abandonedIntake.Load(),
		Completed:             m.completed.Load(),
		Failed:                m.failed.Load(),
		Decisions:             m.decisions.Load(),
		Reschedules:           m.reschedules.Load(),
		Evicted:               m.evicted.Load(),
		Reports:               m.reports.Load(),
		ReportEvents:          m.reportEvents.Load(),
		ReportsRejected:       m.reportsRejected.Load(),
		ReportsDuplicate:      m.reportsDuplicate.Load(),
		WhatIfQueries:         m.whatifs.Load(),
		ReschedulesVariance:   m.reschedVariance.Load(),
		ReschedulesArrival:    m.reschedArrival.Load(),
		ReschedulesDeparture:  m.reschedDeparture.Load(),
		ReschedulesContention: m.reschedContention.Load(),
		ReschedulesUpgrade:    m.reschedUpgrade.Load(),
		RescheduleMs:          resched,
		Admission: AdmissionDoc{
			AdmittedByClass:    byClass(&m.admAdmitted),
			FastPathByClass:    byClass(&m.admFastPath),
			UpgradedByClass:    byClass(&m.admUpgraded),
			RejectedByClass:    byClass(&m.admRejected),
			QueueDepthByTenant: adm.PerTenant,
			DrainRatePerS:      adm.DrainRate,
			WaitMs:             winDoc(&m.admWaitMs),
			FastInitialMs:      winDoc(&m.admInitialFastMs),
			FullInitialMs:      winDoc(&m.admInitialFullMs),
		},
		LiveResident:         m.liveResident.Load(),
		HistoryTenants:       historyTenants,
		HistoryCells:         historyCells,
		HistoryEvicted:       m.historyEvicted.Load(),
		SharedGrids:          sharedGrids,
		Reservations:         reservations,
		TransferReservations: transferReservations,
		EventsEmitted:        m.eventsEmitted.Load(),
		EventsDropped:        m.eventsDropped.Load(),
		WALAppends:           d.WALAppends,
		WALBytes:             d.WALBytes,
		Snapshots:            d.Snapshots,
		WALErrors:            m.walErrors.Load(),
		WALRecordsSkipped:    m.walSkipped.Load(),
		RecoveredWorkflows:   d.Recovered,
		RecoveryMs:           d.RecoveryMs,
		TraceSpans:           o.Spans,
		TraceSpansDropped:    o.Dropped,
		TraceStageMs:         o.Stages,
		RecorderRecords:      m.recorderRecords.Load(),
		RecorderErrors:       m.recorderErrors.Load(),
		Inflight:             m.inflight.Load(),
		InflightPeak:         m.inflightPeak.Load(),
		QueueDepth:           queueDepth,
		ComputeMs:            winDoc(&m.compute),
	}
}

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
// encoders produces for v: compact JSON, Content-Length set, a single
// Write. Only the report ack and the plan go this way — the documents of
// the report loop's hot path; a value the encoder refuses (a non-finite
// number, which no adopted plan carries) is a 500 like any other bug.
func writeAppended[T any](w http.ResponseWriter, v *T, enc func([]byte, *T) ([]byte, error)) {
	bp := respBufs.Get().(*[]byte)
	defer respBufs.Put(bp)
	b, err := enc((*bp)[:0], v)
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
