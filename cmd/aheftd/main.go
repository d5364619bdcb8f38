// Command aheftd is the adaptive-scheduling daemon: it serves the
// internal/server HTTP API (wire-format workflow submission, status,
// SSE decision streams, health, metrics) over N sharded session workers.
//
//	aheftd -addr :7070 -shards 4 -queue 256
//
// With -data-dir the daemon is durable: every shard journals its state
// to a write-ahead log (fsync policy -wal-sync) with periodic snapshots,
// and a restarted daemon replays the directory to resume live workflows
// mid-flight. While replay runs the listener answers 503 "recovering"
// (GET /v1/healthz), flipping to "ready" when the recovered state is
// serving.
//
// SIGTERM or SIGINT starts a graceful drain: intake returns 503, every
// queued workflow finishes, then the process exits 0. A second signal —
// or the -drain-timeout deadline — force-cancels in-flight runs and
// exits non-zero.
//
// -debug-addr serves net/http/pprof, and every runtime/metrics sample as
// a "name value" line on /debug/metrics, on a listener of its own (off by
// default; never on -addr):
//
//	aheftd -debug-addr 127.0.0.1:6060 &
//	go tool pprof 'http://127.0.0.1:6060/debug/pprof/profile?seconds=10'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"syscall"
	"time"

	"aheft/internal/buildinfo"
	"aheft/internal/server"
	"aheft/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// /debug/metrics joins net/http/pprof on http.DefaultServeMux: one line
// per runtime/metrics sample, a histogram as its count.
func init() {
	http.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		all := metrics.All()
		samples := make([]metrics.Sample, len(all))
		for i, d := range all {
			samples[i].Name = d.Name
		}
		metrics.Read(samples)
		for _, s := range samples {
			switch v := s.Value; v.Kind() {
			case metrics.KindUint64:
				fmt.Fprintf(w, "%s %d\n", s.Name, v.Uint64())
			case metrics.KindFloat64:
				fmt.Fprintf(w, "%s %g\n", s.Name, v.Float64())
			case metrics.KindFloat64Histogram:
				n := uint64(0)
				for _, c := range v.Float64Histogram().Counts {
					n += c
				}
				fmt.Fprintf(w, "%s %d\n", s.Name, n)
			}
		}
	})
}

// run is the daemon: it returns once a drain (or a failure to serve)
// ends it, with the process's exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aheftd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":7070", "listen address")
	shards := fs.Int("shards", 4, "session workers (one scheduling pipeline each); with -data-dir, the count is fixed by the data directory's first start")
	queue := fs.Int("queue", 256, "per-shard bounded admission backlog (total accepted-but-unstarted submissions)")
	tenantBacklog := fs.Int("tenant-backlog", 0, "per-tenant share of a shard's admission backlog (0 = unbounded; floods then bound only by -queue)")
	gridShareCap := fs.Float64("grid-share-cap", 0, "per-tenant share cap on a shared grid's reservations, 0 < cap < 1 (0 = off)")
	maxJobs := fs.Int("max-jobs", wire.DefaultLimits.MaxJobs, "per-submission job cap")
	maxRes := fs.Int("max-resources", wire.DefaultLimits.MaxResources, "per-submission resource cap")
	defaultPolicy := fs.String("policy", "aheft", "default scheduling policy for submissions that name none")
	drainTimeout := fs.Duration("drain-timeout", 60*time.Second, "max time to drain queued workflows on shutdown")
	varThr := fs.Float64("variance-threshold", 0, "default significant-variance gate for live workflows (0 = built-in 0.2)")
	maxTenants := fs.Int("max-tenant-histories", 0, "per-shard cap on retained tenant performance histories (0 = 1024, negative = unbounded)")
	maxGrids := fs.Int("max-grids", 0, "cap on registered shared grids (0 = 256, negative = unbounded)")
	dataDir := fs.String("data-dir", "", "durability directory (per-shard WAL + snapshots); empty = in-memory only")
	walSync := fs.String("wal-sync", "interval", "WAL fsync policy: always | interval | off")
	walSyncInterval := fs.Duration("wal-sync-interval", 0, "fsync cadence for -wal-sync=interval (0 = built-in 100ms)")
	snapInterval := fs.Duration("snapshot-interval", 0, "per-shard snapshot cadence (0 = built-in 30s)")
	tracing := fs.Bool("trace", false, "enable the causal span tracer (GET /v1/workflows/{id}/trace, per-stage latencies in /metrics)")
	traceFile := fs.String("trace-file", "", "stream completed spans to this file as OTLP-shaped JSON lines (implies -trace)")
	traceSpans := fs.Int("trace-spans", 0, "retained spans per workflow for the trace endpoint (0 = built-in 512)")
	recordDir := fs.String("record-dir", "", "flight-recorder directory: capture every input and decision per shard for deterministic replay (cmd/replay)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and /debug/metrics on this address, apart from -addr (empty = off)")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String())
		return 0
	}
	logger := log.New(stderr, "", log.LstdFlags)
	cfg := server.Config{
		Shards:                *shards,
		QueueDepth:            *queue,
		TenantBacklog:         *tenantBacklog,
		GridShareCap:          *gridShareCap,
		Limits:                wire.Limits{MaxJobs: *maxJobs, MaxResources: *maxRes},
		DefaultPolicy:         *defaultPolicy,
		VarianceThreshold:     *varThr,
		MaxTenantHistories:    *maxTenants,
		MaxSharedGrids:        *maxGrids,
		DataDir:               *dataDir,
		WALSync:               *walSync,
		WALSyncInterval:       *walSyncInterval,
		SnapshotInterval:      *snapInterval,
		Tracing:               *tracing,
		TraceFile:             *traceFile,
		TraceSpansPerWorkflow: *traceSpans,
		RecordDir:             *recordDir,
	}
	// A data directory keeps the shard count of its first start: a start
	// under another count is refused before anything listens.
	if err := server.CheckLayout(cfg); err != nil {
		logger.Printf("aheftd: open: %v", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Serve the readiness gate before recovery starts: a restarted durable
	// daemon with a deep WAL answers 503 "recovering" instead of refusing
	// connections, so load balancers and the chaos harness can wait on
	// /v1/healthz rather than on the TCP dial.
	gate := server.NewGate()
	httpSrv := &http.Server{Addr: *addr, Handler: gate}
	errCh := make(chan error, 2)
	go func() {
		logger.Printf("aheftd: %s listening on %s (%d shards, queue depth %d, default policy %s)",
			buildinfo.String(), *addr, *shards, *queue, *defaultPolicy)
		errCh <- httpSrv.ListenAndServe()
	}()
	if *debugAddr != "" {
		// net/http/pprof and /debug/metrics register on
		// http.DefaultServeMux, which only this listener serves: the API
		// handler is a mux of its own.
		debugSrv := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux}
		defer debugSrv.Close()
		go func() {
			logger.Printf("aheftd: profiling on %s", *debugAddr)
			errCh <- debugSrv.ListenAndServe()
		}()
	}

	srv, err := server.Open(cfg)
	if err != nil {
		logger.Printf("aheftd: open: %v", err)
		return 1
	}
	gate.Ready(srv.Handler())
	if *dataDir != "" {
		logger.Printf("aheftd: durable in %s (wal-sync=%s): %s", *dataDir, *walSync, srv.Recovery())
	}

	select {
	case err := <-errCh:
		logger.Printf("aheftd: serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default handling: a second signal kills the process

	logger.Printf("aheftd: draining (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	_ = httpSrv.Shutdown(drainCtx)

	m := srv.MetricsSnapshot()
	logger.Printf("aheftd: drained: accepted=%d completed=%d failed=%d rejected(backpressure=%d invalid=%d drain=%d) reschedules=%d events=%d dropped=%d inflight_peak=%d",
		m.Accepted, m.Completed, m.Failed, m.RejectedFull, m.RejectedInvalid, m.RejectedDrain,
		m.Reschedules, m.EventsEmitted, m.EventsDropped, m.InflightPeak)
	logger.Printf("aheftd: feedback: reports=%d events=%d rejected=%d whatif=%d reschedules(variance=%d arrival=%d departure=%d) history(tenants=%d cells=%d)",
		m.Reports, m.ReportEvents, m.ReportsRejected, m.WhatIfQueries,
		m.ReschedulesVariance, m.ReschedulesArrival, m.ReschedulesDeparture,
		m.HistoryTenants, m.HistoryCells)
	if *dataDir != "" {
		logger.Printf("aheftd: durability: wal_appends=%d wal_bytes=%d snapshots=%d wal_errors=%d",
			m.WALAppends, m.WALBytes, m.Snapshots, m.WALErrors)
	}
	if drainErr != nil && !errors.Is(drainErr, context.Canceled) {
		fmt.Fprintf(stderr, "aheftd: drain incomplete: %v\n", drainErr)
		return 1
	}
	return 0
}
