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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aheft/internal/buildinfo"
	"aheft/internal/server"
	"aheft/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	shards := flag.Int("shards", 4, "session workers (one scheduling pipeline each)")
	queue := flag.Int("queue", 256, "per-shard bounded admission backlog (total accepted-but-unstarted submissions)")
	tenantBacklog := flag.Int("tenant-backlog", 0, "per-tenant share of a shard's admission backlog (0 = unbounded; floods then bound only by -queue)")
	fastPathDepth := flag.Int("fast-path-depth", 0, "backlog depth at which live submissions get a fast greedy plan upgraded asynchronously (0 = built-in 8, negative = off)")
	gridShareCap := flag.Float64("grid-share-cap", 0, "per-tenant share cap on a shared grid's reservations, 0 < cap < 1 (0 = off)")
	maxJobs := flag.Int("max-jobs", wire.DefaultLimits.MaxJobs, "per-submission job cap")
	maxRes := flag.Int("max-resources", wire.DefaultLimits.MaxResources, "per-submission resource cap")
	defaultPolicy := flag.String("policy", "aheft", "default scheduling policy for submissions that name none")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "max time to drain queued workflows on shutdown")
	varThr := flag.Float64("variance-threshold", 0, "default significant-variance gate for live workflows (0 = built-in 0.2)")
	maxTenants := flag.Int("max-tenant-histories", 0, "per-shard cap on retained tenant performance histories (0 = 1024, negative = unbounded)")
	maxGrids := flag.Int("max-grids", 0, "cap on registered shared grids (0 = 256, negative = unbounded)")
	dataDir := flag.String("data-dir", "", "durability directory (per-shard WAL + snapshots); empty = in-memory only")
	walSync := flag.String("wal-sync", "interval", "WAL fsync policy: always | interval | off")
	walSyncInterval := flag.Duration("wal-sync-interval", 0, "fsync cadence for -wal-sync=interval (0 = built-in 100ms)")
	snapInterval := flag.Duration("snapshot-interval", 0, "per-shard snapshot cadence (0 = built-in 30s)")
	tracing := flag.Bool("trace", false, "enable the causal span tracer (GET /v1/workflows/{id}/trace, per-stage latencies in /metrics)")
	traceFile := flag.String("trace-file", "", "stream completed spans to this file as OTLP-shaped JSON lines (implies -trace)")
	traceSpans := flag.Int("trace-spans", 0, "retained spans per workflow for the trace endpoint (0 = built-in 512)")
	recordDir := flag.String("record-dir", "", "flight-recorder directory: capture every input and decision per shard for deterministic replay (cmd/replay)")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	// Serve the readiness gate before recovery starts: a restarted durable
	// daemon with a deep WAL answers 503 "recovering" instead of refusing
	// connections, so load balancers and the chaos harness can wait on
	// /v1/healthz rather than on the TCP dial.
	gate := server.NewGate()
	httpSrv := &http.Server{Addr: *addr, Handler: gate}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("aheftd: %s listening on %s (%d shards, queue depth %d, default policy %s)",
			buildinfo.String(), *addr, *shards, *queue, *defaultPolicy)
		errCh <- httpSrv.ListenAndServe()
	}()

	srv, err := server.Open(server.Config{
		Shards:                *shards,
		QueueDepth:            *queue,
		TenantBacklog:         *tenantBacklog,
		FastPathDepth:         *fastPathDepth,
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
	})
	if err != nil {
		log.Fatalf("aheftd: open: %v", err)
	}
	gate.Ready(srv.Handler())
	if *dataDir != "" {
		log.Printf("aheftd: durable in %s (wal-sync=%s): %s", *dataDir, *walSync, srv.Recovery())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("aheftd: serve: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default handling: a second signal kills the process

	log.Printf("aheftd: draining (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	_ = httpSrv.Shutdown(drainCtx)

	m := srv.MetricsSnapshot()
	log.Printf("aheftd: drained: accepted=%d completed=%d failed=%d rejected(backpressure=%d invalid=%d drain=%d) reschedules=%d events=%d dropped=%d inflight_peak=%d",
		m.Accepted, m.Completed, m.Failed, m.RejectedFull, m.RejectedInvalid, m.RejectedDrain,
		m.Reschedules, m.EventsEmitted, m.EventsDropped, m.InflightPeak)
	log.Printf("aheftd: feedback: reports=%d events=%d rejected=%d whatif=%d reschedules(variance=%d arrival=%d departure=%d) history(tenants=%d cells=%d)",
		m.Reports, m.ReportEvents, m.ReportsRejected, m.WhatIfQueries,
		m.ReschedulesVariance, m.ReschedulesArrival, m.ReschedulesDeparture,
		m.HistoryTenants, m.HistoryCells)
	if *dataDir != "" {
		log.Printf("aheftd: durability: wal_appends=%d wal_bytes=%d snapshots=%d wal_errors=%d",
			m.WALAppends, m.WALBytes, m.Snapshots, m.WALErrors)
	}
	if drainErr != nil && !errors.Is(drainErr, context.Canceled) {
		fmt.Fprintf(os.Stderr, "aheftd: drain incomplete: %v\n", drainErr)
		os.Exit(1)
	}
}
