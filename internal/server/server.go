// Package server is the aheftd scheduling daemon: a multi-tenant,
// network-facing front end over the kernel-backed planner engine. It
// ingests workflows in the versioned internal/wire format, routes each to
// one of N sharded session workers by consistent hash of the workflow ID
// (so per-run kernel scratch never crosses a goroutine), applies
// backpressure when a shard's bounded queue fills (429 + Retry-After),
// and streams every scheduling decision to subscribers over SSE.
//
//	POST /v1/workflows             submit a wire.Submission   → 202 wire.Submitted
//	GET  /v1/workflows/{id}        status/result              → 200 wire.Status
//	GET  /v1/workflows/{id}/events scheduling-decision stream → SSE of wire.Event
//	GET  /v1/healthz               readiness, drain state, recovery
//	GET  /metrics                  expvar-style counters (server.MetricsDoc)
//
// Shutdown is a graceful drain: intake stops (503), the workers finish
// every queued workflow, then the daemon exits; a deadline on the drain
// context force-cancels in-flight runs instead.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"aheft/internal/admission"
	datamodel "aheft/internal/data"
	"aheft/internal/feedback"
	"aheft/internal/obs"
	"aheft/internal/policy"
	"aheft/internal/wire"
)

// Config tunes the daemon.
type Config struct {
	// Shards is the number of session workers; 0 means 4.
	Shards int
	// QueueDepth bounds each shard's admission backlog: the total
	// accepted-but-unstarted submissions a shard holds, across all
	// tenants, before rejecting with 429 + a drain-derived Retry-After.
	// 0 means 256; negative disables the bound.
	QueueDepth int
	// TenantBacklog bounds one tenant's share of a shard's admission
	// backlog, so a single flooding tenant is told 429 long before it
	// can exhaust the shared backlog for everyone else. 0 or negative
	// disables the per-tenant bound (single-tenant deployments are
	// bounded by QueueDepth alone).
	TenantBacklog int
	// GridShareCap bounds one tenant's share of a shared grid's
	// reservation ledger (0 < cap < 1): at plan adoption, speculative
	// claims past the cap are dropped while other tenants hold
	// reservations, so a greedy tenant cannot blanket a grid's future.
	// 0 (or out of range) disables the cap. Running (pinned) claims are
	// never dropped.
	GridShareCap float64
	// Limits bounds accepted submissions (zero value = wire.DefaultLimits).
	Limits wire.Limits
	// MaxBodyBytes caps the request body; 0 means 64 MiB.
	MaxBodyBytes int64
	// DefaultPolicy is used when a submission names none; "" means
	// "aheft".
	DefaultPolicy string
	// MaxRetained caps how many *terminal* workflow records are kept for
	// status/event queries; when the cap is exceeded the oldest-finished
	// records are evicted (their IDs then answer 404) so a long-lived
	// daemon's memory stays bounded: with the cap full, its peak RSS is
	// about the cap times a record (≈ 0.4 KB for a 60-job analytic
	// workflow, ≈ 1.2 KB for a live one, which keeps its last plan), twice
	// over for the collector's headroom. 0 means 16384; negative disables
	// eviction.
	MaxRetained int
	// VarianceThreshold is the default significant-variance gate for live
	// workflows whose submission names none: a measured runtime deviating
	// from the tenant's history EWMA by more than this relative amount
	// triggers a rescheduling evaluation. 0 means
	// feedback.DefaultVarianceThreshold.
	VarianceThreshold float64
	// MaxTenantHistories caps, per shard, how many tenants' Performance
	// History Repositories are retained; beyond the cap the
	// least-recently-used tenant's history is evicted (its future
	// workflows start with cold estimates). 0 means 1024; negative
	// disables eviction.
	MaxTenantHistories int
	// MaxSharedGrids caps how many named shared grids may be registered
	// (each pins its pool and reservation ledger for the daemon's
	// lifetime). 0 means 256; negative disables the cap.
	MaxSharedGrids int
	// DataDir, when set, makes the daemon durable: each shard keeps a
	// write-ahead log plus periodic snapshots under DataDir/shard-<i>,
	// and Open replays them so a restarted daemon resumes its live
	// workflows mid-flight (see durable.go). Empty disables durability.
	DataDir string
	// WALSync is the fsync policy for the WAL: "always" (fsync every
	// append), "interval" (background fsync every WALSyncInterval — the
	// default), or "off" (leave flushing to the OS).
	WALSync string
	// WALSyncInterval is the background fsync cadence under
	// WALSync="interval"; 0 means durable.DefaultSyncInterval.
	WALSyncInterval time.Duration
	// SnapshotInterval is how often each shard snapshots its full state
	// and truncates its log; 0 means 30s.
	SnapshotInterval time.Duration
	// Tracing enables the causal span tracer (internal/obs): every
	// decision-path stage files a span, retained per workflow for
	// GET /v1/workflows/{id}/trace and rolled into /metrics stage
	// latencies.
	Tracing bool
	// TraceFile, when set, streams every completed span to this file as
	// OTLP-shaped JSON lines (implies Tracing).
	TraceFile string
	// TraceSpansPerWorkflow bounds the retained span log per workflow;
	// 0 means the obs default (512).
	TraceSpansPerWorkflow int
	// RecordDir, when set, turns on the deterministic flight recorder:
	// each shard appends every external input it processes (submissions,
	// reports, grid registrations) plus every output it emits (decisions,
	// plan generations, terminals) to the store RecordDir/record-shard-<i>.
	// internal/replay re-drives such a recording through a fresh daemon
	// and asserts a bit-identical output sequence.
	RecordDir string
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.DefaultPolicy == "" {
		c.DefaultPolicy = "aheft"
	}
	if c.MaxRetained == 0 {
		c.MaxRetained = 16384
	}
	if c.VarianceThreshold <= 0 {
		c.VarianceThreshold = feedback.DefaultVarianceThreshold
	}
	if c.MaxTenantHistories == 0 {
		c.MaxTenantHistories = 1024
	}
	if c.MaxSharedGrids == 0 {
		c.MaxSharedGrids = 256
	}
	if c.WALSync == "" {
		c.WALSync = "interval"
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	return c
}

// Server is the daemon core, independent of the listener: cmd/aheftd
// mounts Handler on an http.Server, tests mount it on httptest.
type Server struct {
	cfg     Config
	metrics *Metrics
	shards  []*shard
	mux     *http.ServeMux
	intake  chan struct{} // bounds concurrently buffered/decoded submissions: 2×Shards, at least 4

	runCtx    context.Context // cancelling force-aborts in-flight runs
	cancelRun context.CancelFunc
	workers   sync.WaitGroup

	// submitMu orders submissions against drain: enqueues hold it shared,
	// Shutdown takes it exclusively to flip draining and close the
	// queues, so no send can race a close.
	submitMu sync.RWMutex
	draining bool

	// Shared-grid registry (see grids.go). grids is written under both
	// locks — gridAdd holds one registration from its checks to its
	// publication (shard.apply) — so either lock reads it.
	gridAdd sync.Mutex
	gridMu  sync.RWMutex
	grids   map[string]*sharedGrid

	mu       sync.RWMutex
	wfs      map[string]*workflow
	retained []string // terminal workflow IDs in finish order, for eviction
	seq      uint64

	// execHook, when non-nil, runs at the start of every workflow
	// execution. Tests use it to hold a worker in place and exercise
	// backpressure deterministically.
	execHook func(*workflow)

	// Durability (set by Open when Config.DataDir is non-empty).
	recovery RecoveryStats // the startup recovery (see durable.go)
	walFinal sync.Once     // final snapshot + store close on Shutdown

	// Observability (set by Open; see obs.go wiring and record.go).
	tracer    *obs.Tracer // nil when Config.Tracing is off
	traceFile *os.File    // OTLP sink backing file (nil without TraceFile)
	recorder  *recorder   // nil when Config.RecordDir is empty
	obsFinal  sync.Once   // trailer + flush on Shutdown
}

// New builds and starts a daemon core: the shard workers are running
// when New returns. It panics on error, which only durable
// configurations (Config.DataDir set) can produce — use Open for those.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a daemon core and, when Config.DataDir is set, replays the
// write-ahead logs and snapshots found there before any worker starts:
// when Open returns, recovered live workflows are resident on their
// shards with their current plans and feedback state, shared-grid
// ledgers are reassembled, and pending submissions are re-queued. The
// replay runs strictly before the shard goroutines exist, so recovery
// touches trackers under the same single-goroutine discipline the
// workers follow (via happens-before of the goroutine start). A data
// directory laid out for another shard count is refused before anything
// is written (see readLayout).
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := CheckLayout(cfg); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		metrics:   NewMetrics(),
		intake:    make(chan struct{}, max(2*cfg.Shards, 4)),
		runCtx:    ctx,
		cancelRun: cancel,
		grids:     make(map[string]*sharedGrid),
		wfs:       make(map[string]*workflow),
	}
	tenantBacklog := cfg.TenantBacklog
	if tenantBacklog <= 0 {
		tenantBacklog = -1 // server semantics: unset means unbounded
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:  i,
			srv: s,
			adm: admission.New(admission.Config{
				TotalBacklog:     cfg.QueueDepth,
				PerTenantBacklog: tenantBacklog,
			}),
			cmds: make(chan shardCmd, 16),
			live: make(map[string]*workflow),
		}
		s.shards = append(s.shards, sh)
	}
	if cfg.Tracing || cfg.TraceFile != "" {
		topts := obs.Options{MaxSpansPerWorkflow: cfg.TraceSpansPerWorkflow}
		if cfg.TraceFile != "" {
			f, err := os.Create(cfg.TraceFile)
			if err != nil {
				cancel()
				return nil, fmt.Errorf("server: trace file: %w", err)
			}
			s.traceFile = f
			topts.Sink = f
		}
		s.tracer = obs.New(topts)
	}
	if cfg.RecordDir != "" {
		rec, err := openRecorder(cfg.RecordDir, cfg, s.metrics)
		if err != nil {
			cancel()
			if s.traceFile != nil {
				s.traceFile.Close()
			}
			return nil, err
		}
		s.recorder = rec
	}
	if cfg.DataDir != "" {
		if err := s.recoverState(); err != nil {
			cancel()
			s.finalizeObs(false)
			return nil, err
		}
	}
	for _, sh := range s.shards {
		s.workers.Add(1)
		go sh.run()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workflows", s.handleSubmit)
	mux.HandleFunc("GET /v1/workflows/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/workflows/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/workflows/{id}/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/workflows/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/workflows/{id}/report", s.handleReport)
	mux.HandleFunc("POST /v1/workflows/{id}/whatif", s.handleWhatIf)
	mux.HandleFunc("PUT /v1/grids/{name}", s.handleGridPut)
	mux.HandleFunc("GET /v1/grids/{name}", s.handleGridGet)
	mux.HandleFunc("GET /v1/grids", s.handleGridList)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthzV1)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// MetricsSnapshot assembles the current /metrics document: the counters
// and latency windows, plus the gauges read from the shards, grids,
// durable stores and tracer.
func (s *Server) MetricsSnapshot() MetricsDoc {
	doc := s.metrics.snapshot()
	doc.Shards = len(s.shards)
	doc.QueueDepth = make([]int, len(s.shards))
	a := &doc.Admission
	a.QueueDepthByTenant = make(map[string]int)
	for i, sh := range s.shards {
		st := sh.adm.Stats()
		doc.QueueDepth[i] = st.Total
		for tenant, d := range st.PerTenant {
			a.QueueDepthByTenant[tenant] += d
		}
		a.DrainRatePerS += st.DrainRate
		t, c := sh.historyTotals()
		doc.HistoryTenants += t
		doc.HistoryCells += c
		if sh.wal != nil {
			appends, size, snaps := sh.wal.store.Counters()
			doc.WALAppends += appends
			doc.WALBytes += size
			doc.Snapshots += snaps
		}
	}
	doc.SharedGrids, doc.Reservations, doc.TransferReservations = s.gridTotals()
	doc.RecoveredWorkflows, doc.RecoveryMs = s.recovery.Workflows, s.recovery.Ms
	doc.TraceSpans, doc.TraceSpansDropped = s.tracer.Totals()
	doc.TraceStageMs = s.tracer.StageSummary()
	return doc
}

// Shutdown drains the daemon: it stops intake (further submissions get
// 503), lets the workers finish every queued workflow, and returns nil on
// a clean drain. If ctx expires first, in-flight and queued runs are
// force-cancelled and ctx's error is returned. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.submitMu.Lock()
	if !s.draining {
		s.draining = true
		for _, sh := range s.shards {
			sh.adm.Close()
		}
	}
	s.submitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelRun()
		s.finalizeWAL()
		s.finalizeObs(true)
		return nil
	case <-ctx.Done():
		s.cancelRun()
		<-done
		s.finalizeWAL()
		// Force-cancelled runs cut their record streams mid-decision; the
		// trailer marks the recording unclean so replay refuses it with a
		// diagnostic instead of diverging.
		s.finalizeObs(false)
		return ctx.Err()
	}
}

// finalizeObs writes the record-stream trailers and flushes the trace
// sink. Runs once, after every worker has exited (all worker-side
// appends are done).
func (s *Server) finalizeObs(clean bool) {
	s.obsFinal.Do(func() {
		if s.recorder != nil {
			s.recorder.finalize(clean)
		}
		if s.tracer != nil {
			s.tracer.Close()
		}
		if s.traceFile != nil {
			s.traceFile.Close()
		}
	})
}

// finalizeWAL writes one last snapshot per shard and closes the stores.
// Runs once, after every worker has exited, so touching shard state here
// is safe. A Crash()ed server's stores are disabled, making this a no-op.
func (s *Server) finalizeWAL() {
	s.walFinal.Do(func() {
		for _, sh := range s.shards {
			if sh.wal == nil {
				continue
			}
			sh.snapshot()
			sh.wal.store.Close()
		}
	})
}

// errorDoc is the JSON body of every non-2xx API response.
type errorDoc struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	m.count(func(c *MetricsDoc) { c.Submissions++ })
	// Cheap rejections first: a request the daemon cannot accept is
	// bounced before its (up to MaxBodyBytes) body is read or decoded,
	// so backpressure bounds intake memory and CPU, not just the queues.
	// The ID is daemon-assigned, so the target shard is known pre-decode;
	// admit, after the decode, remains the authoritative check — this one
	// just refuses the obviously futile work early.
	s.submitMu.RLock()
	draining := s.draining
	s.submitMu.RUnlock()
	if draining {
		m.count(func(c *MetricsDoc) { c.RejectedDrain++ })
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: "server is draining"})
		return
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("wf-%08d", s.seq)
	s.mu.Unlock()
	shardID := shardFor(id, len(s.shards))
	// The id-hashed shard is only a guess until the body is decoded (a
	// shared-grid submission re-routes to its grid's shard), so the
	// pre-decode fast reject fires only when *every* admission queue is
	// saturated — then no routing could succeed and reading the body is
	// futile. Tenant and class are unknown pre-decode, so the advice is
	// the guessed shard's aggregate drain estimate.
	allFull := true
	for _, sh := range s.shards {
		if !sh.adm.Saturated() {
			allFull = false
			break
		}
	}
	if allFull {
		m.count(func(c *MetricsDoc) { c.RejectedFull++ })
		w.Header().Set("Retry-After", strconv.Itoa(s.shards[shardID].adm.RetryAfter("", "")))
		writeJSON(w, http.StatusTooManyRequests, errorDoc{Error: fmt.Sprintf("shard %d admission queue full", shardID)})
		return
	}
	// The intake semaphore caps how many request bodies are buffered and
	// decoded at once: without it, N concurrent large POSTs would hold
	// N × MaxBodyBytes before any queue-full rejection could fire.
	// Waiting here holds only the connection and its goroutine.
	select {
	case s.intake <- struct{}{}:
		defer func() { <-s.intake }()
	case <-r.Context().Done():
		// Client gave up while waiting for an intake slot. Counted so
		// the /metrics identity submissions = accepted + rejected_* +
		// abandoned_intake still reconciles.
		m.count(func(c *MetricsDoc) { c.AbandonedIntake++ })
		return
	}

	// The intake span covers body read, decode/validate and registration.
	// It must end — and the queue span must open — strictly before the
	// enqueue: the worker can pick the workflow up the instant the send
	// lands, and it reads rootSpan/queueAct without synchronisation
	// beyond the channel's happens-before.
	intakeAct := s.tracer.Start(obs.StageIntake, id)
	// Without a journal or a recorder nothing keeps the body past the
	// decode, and nothing decoded is a view of it: its buffer is pooled.
	var buf *bytes.Buffer
	if s.cfg.DataDir == "" && s.cfg.RecordDir == "" {
		buf = bodies.Get().(*bytes.Buffer)
	}
	data, err := s.readBody(w, r, buf)
	if err != nil {
		putBody(buf)
		intakeAct.Fail(err)
		m.count(func(c *MetricsDoc) { c.RejectedInvalid++ })
		return
	}
	wf, _, err := s.buildWorkflow(id, data)
	putBody(buf)
	if err != nil {
		intakeAct.Fail(err)
		m.count(func(c *MetricsDoc) { c.RejectedInvalid++ })
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	// Register before admitting so the ID resolves the instant the client
	// can know it; admit unregisters it if the shard refuses.
	s.mu.Lock()
	s.wfs[id] = wf
	s.mu.Unlock()
	if intakeAct != nil {
		intakeAct.Span.Shard = wf.shard
		intakeAct.Span.Tenant = wf.tenant
		if wf.gridRef != nil {
			intakeAct.Span.Grid = wf.gridRef.name
		}
		wf.rootSpan = intakeAct.End()
		wf.queueAct = s.tracer.Start(obs.StageQueue, id)
		wf.queueAct.Span.Parent = wf.rootSpan
		wf.queueAct.Span.Shard = wf.shard
	}
	if err := s.admit(wf); err != nil {
		code := http.StatusServiceUnavailable
		var backlog *admission.BacklogError
		if errors.As(err, &backlog) {
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(backlog.RetryAfter))
		}
		writeJSON(w, code, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, wire.Submitted{ID: id, Shard: wf.shard, State: StateQueued})
}

// maxBodyPresize caps what readBody allocates on the word of a request's
// Content-Length; a longer body grows the buffer as it comes.
const maxBodyPresize = 1 << 20

// bodies holds the buffers of submissions whose bodies nothing keeps.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBody hands a buffer from bodies back, unless it grew past
// maxBodyPresize; nil is no buffer.
func putBody(buf *bytes.Buffer) {
	if buf != nil && buf.Cap() <= maxBodyPresize {
		buf.Reset()
		bodies.Put(buf)
	}
}

// readBody reads a request body of at most Config.MaxBodyBytes into buf,
// or a fresh buffer if buf is nil. On failure it has answered the request
// — 413 for a body over the limit, 400 for one that could not be read —
// and returns the error.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) ([]byte, error) {
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		// ReadFrom wants bytes.MinRead spare to see the EOF without growing.
		buf.Grow(int(min(n, maxBodyPresize)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		code := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorDoc{Error: fmt.Sprintf("read body: %v", err)})
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildWorkflow decodes and validates a raw submission body into a
// registered-shape workflow record: policy resolution, live-mode
// checks, tenant and variance defaults, shared-grid routing. It is the
// one constructor both the submit path and crash recovery use, so a
// replayed body rebuilds exactly the record the original request built.
func (s *Server) buildWorkflow(id string, data []byte) (*workflow, *sharedGrid, error) {
	sub, err := wire.DecodeSubmission(data, s.cfg.Limits)
	if err != nil {
		return nil, nil, err
	}
	polName := sub.Policy
	if polName == "" {
		polName = s.cfg.DefaultPolicy
	}
	pol, err := policy.Get(polName)
	if err != nil {
		return nil, nil, err
	}
	live := sub.Mode == wire.ModeLive
	if live && policy.IsJustInTime(pol) {
		// A just-in-time Plan is a dispatch simulation, not an enactable
		// schedule (see policy.JustInTime); a live client cannot execute
		// it.
		return nil, nil, fmt.Errorf("policy %q is just-in-time and cannot drive a live workflow", polName)
	}
	tenant := sub.Tenant
	if tenant == "" {
		tenant = "default"
	}
	varThr := sub.Options.VarianceThreshold
	if varThr <= 0 {
		varThr = s.cfg.VarianceThreshold
	}
	// Shared-grid attachment: resolve the named grid and re-route the
	// workflow to the grid's shard, so every workflow contending on one
	// grid plans on one goroutine against one ledger.
	var gref *sharedGrid
	shardID := shardFor(id, len(s.shards))
	poolSize := 0
	if sub.SharedGrid != "" {
		g, ok := s.gridLookup(sub.SharedGrid)
		if !ok {
			return nil, nil, fmt.Errorf("unknown shared grid %q (create it with PUT /v1/grids/%s)", sub.SharedGrid, sub.SharedGrid)
		}
		if sub.Comp.Resources() != g.pool.Size() {
			return nil, nil, fmt.Errorf("estimator table covers %d resources, grid %q has %d",
				sub.Comp.Resources(), sub.SharedGrid, g.pool.Size())
		}
		gref = g
		shardID = g.shard
		poolSize = g.pool.Size()
	} else {
		poolSize = sub.Pool.Size()
	}

	// Data-aware submission: bind the file catalog to the concrete pool
	// here, once, so the live tracker, the restore path, and the analytic
	// engine all plan under the same model. For shared-grid workflows this
	// is also where host references are range-checked against the grid's
	// universe (decode could not — it never sees the grid).
	var dm *datamodel.Model
	if sub.Files != nil {
		pool := sub.Pool
		if gref != nil {
			pool = gref.pool
		}
		dm, err = datamodel.NewModel(sub.Files, pool, sub.Graph, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("bind file catalog: %w", err)
		}
	}

	wf := &workflow{
		id:    id,
		shard: shardID,
		live:  live,
		running: &running{
			sub:     sub,
			tenant:  tenant,
			varThr:  varThr,
			class:   sub.Options.Class,
			weight:  sub.Options.Weight,
			gridRef: gref,
			pol:     pol,
			opts: policy.Options{
				TieWindow:      sub.Options.TieWindow,
				NoInsertion:    sub.Options.NoInsertion,
				RestartRunning: sub.Options.RestartRunning,
				Eps:            sub.Options.Eps,
				Data:           dm,
			},
			submittedAt: time.Now(),
			entry: entry{
				st: wire.Status{
					ID:        id,
					Name:      sub.Name,
					State:     StateQueued,
					Policy:    pol.Name(),
					Shard:     shardID,
					Jobs:      sub.Graph.Len(),
					Resources: poolSize,
				},
				// The log is seeded with the "submitted" event before the
				// record is published, so the stream ordering holds even
				// though the worker may append "started" the instant the
				// enqueue lands. It is counted in events_emitted only once
				// the enqueue succeeds — a rejected submission's log dies
				// with the record and must not move the published counter.
				// Sized for an analytic run's handful of events.
				events: append(make([]eventRec, 0, 8), eventRec{kind: "submitted"}),
			},
		},
	}
	if s.cfg.DataDir != "" || s.cfg.RecordDir != "" {
		// Kept for the journal and the recorder: the callers hand data over.
		wf.body = data
	}
	if live {
		wf.st.Mode = wire.ModeLive
		wf.st.Tenant = tenant
	}
	if gref != nil {
		wf.st.Grid = gref.name
	}
	return wf, gref, nil
}

// errDraining refuses a submission that arrives after Shutdown began.
var errDraining = errors.New("server is draining")

// admit hands a registered workflow to its shard's fair queue. It is the
// one way a submission is accepted — from HTTP intake or a replayed
// recording — and it keeps the submission counters. A refusal (drain, or
// a full backlog: a flooding tenant hits its own bound while others keep
// landing, and the *admission.BacklogError's Retry-After is the time for
// that tenant's backlog to drain at its weighted share) is unwound here
// and returned. A durable shard journals wf.body once it is queued
// (shard.enqueue), so a crash between accept and start replays it as
// pending.
func (s *Server) admit(wf *workflow) error {
	m := s.metrics
	sh := s.shards[wf.shard]
	// Everything is read from the running half now: the worker may finish
	// the workflow and drop it the instant the enqueue lands.
	item := admission.Item{ID: wf.id, Tenant: wf.tenant, Class: wf.class, Weight: wf.weight, Value: wf}
	cls := className(wf.class)
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	err := errDraining
	if !s.draining {
		// Reserve the in-flight slot before the enqueue, or a fast worker
		// could end the workflow first and take the gauge below zero.
		m.inflightReserve()
		if err = sh.enqueue(item, wf.body); err == nil {
			m.count(func(c *MetricsDoc) {
				c.Accepted++
				c.Admission.AdmittedByClass[cls]++
				c.EventsEmitted++ // the seeded "submitted" event
			})
			return nil
		}
		m.inflightRelease()
	}
	wf.queueAct.Fail(err)
	s.reject(wf, err)
	var backlog *admission.BacklogError
	if errors.As(err, &backlog) {
		m.count(func(c *MetricsDoc) {
			c.RejectedFull++
			c.Admission.RejectedByClass[cls]++
		})
	} else {
		// Closed by a drain that raced past the check, or an invalid class
		// that slipped validation.
		m.count(func(c *MetricsDoc) { c.RejectedDrain++ })
	}
	return err
}

func (s *Server) forget(id string) {
	s.mu.Lock()
	delete(s.wfs, id)
	s.mu.Unlock()
}

// reject unwinds a workflow whose enqueue was refused: the record is
// unregistered (its seeded event log was never counted), and any
// subscriber that attached in the register→reject window is closed out
// instead of hanging on a live stream that will never finish.
func (s *Server) reject(wf *workflow, err error) {
	s.forget(wf.id)
	wf.finish(nil, err)
}

// retire records that a workflow reached a terminal state and evicts the
// oldest-finished records beyond the retention cap, so the registry —
// and with it the decoded submissions and event logs it pins — stays
// bounded over an arbitrarily long daemon lifetime.
func (s *Server) retire(id string) {
	limit := s.cfg.MaxRetained
	if limit < 0 {
		return
	}
	s.mu.Lock()
	s.retained = append(s.retained, id)
	for len(s.retained) > limit {
		// Trace memory has the same lifetime as status memory: an evicted
		// workflow's spans go with its record.
		s.tracer.Release(s.retained[0])
		delete(s.wfs, s.retained[0])
		s.retained = s.retained[1:]
		s.metrics.count(func(c *MetricsDoc) { c.Evicted++ })
	}
	s.mu.Unlock()
}

func (s *Server) lookup(id string) (*workflow, bool) {
	s.mu.RLock()
	wf, ok := s.wfs[id]
	s.mu.RUnlock()
	return wf, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	wf, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown workflow"})
		return
	}
	writeJSON(w, http.StatusOK, wf.status())
}

// handleEvents streams the workflow's scheduling events as server-sent
// events: the full log replayed from Seq 0, then live until the workflow
// reaches a terminal state or the client disconnects. Because the replay
// snapshot and the live subscription are taken under one lock, the
// concatenated stream has dense Seq numbers except across events dropped
// for this subscriber's own slowness (counted in /metrics
// events_dropped) — a consumer detects that as a Seq gap and can re-GET
// the status/stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	wf, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown workflow"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, ended, cancel := wf.subscribe()
	defer cancel()
	var buf []byte
	for _, ev := range replay {
		if !writeSSE(w, &buf, &ev) {
			return
		}
	}
	fl.Flush()
	if live == nil {
		return // already terminal: the replay was the whole stream
	}
	for {
		select {
		case ev := <-live:
			if !writeSSE(w, &buf, &ev) {
				return
			}
			fl.Flush()
		case <-ended:
			// The workflow is terminal and its last events are buffered.
			for len(live) > 0 {
				if ev := <-live; !writeSSE(w, &buf, &ev) {
					return
				}
			}
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE writes ev as one server-sent event, encoded in buf's storage.
func writeSSE(w http.ResponseWriter, buf *[]byte, ev *wire.Event) bool {
	e := wire.NewAppender(append(append((*buf)[:0], "event: "...), ev.Kind...))
	e.Raw("\ndata: ")
	ev.AppendJSON(&e)
	e.Raw("\n\n")
	b, err := e.Done()
	if err != nil {
		return false
	}
	*buf = b
	_, err = w.Write(b)
	return err == nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := s.MetricsSnapshot()
	if wantsPrometheus(r) {
		writePrometheus(w, doc)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}
