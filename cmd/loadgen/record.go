package main

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"time"

	"aheft/internal/server"
)

// startRecorded spawns an in-process daemon with the flight recorder
// enabled (server.Config.RecordDir) listening on an ephemeral loopback
// port, so a plain `loadgen -record <dir>` run needs no external aheftd
// and leaves behind a recording cmd/replay can verify. The returned
// finish func drains the daemon — writing each stream's clean trailer —
// and prints the replay hint. finish runs only when the run succeeds; a
// gate-failed run leaves trailer-less streams that replay refuses with a
// diagnostic rather than replaying a lie.
func startRecorded(dir string) (base string, finish func()) {
	srv, err := server.Open(server.Config{
		Shards:            recordShards,
		QueueDepth:        4096,
		DefaultPolicy:     policyName,
		VarianceThreshold: varianceThreshold,
		RecordDir:         dir,
	})
	if err != nil {
		log.Fatalf("loadgen: -record: open daemon: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("loadgen: -record: listen: %v", err)
	}
	go func() {
		if err := http.Serve(ln, srv.Handler()); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("loadgen: -record: serve: %v", err)
		}
	}()
	log.Printf("loadgen: -record: in-process daemon on %s recording to %s (%d shards)",
		ln.Addr(), dir, recordShards)
	finish = func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("loadgen: -record: drain: %v", err)
		}
		ln.Close()
		m := srv.MetricsSnapshot()
		log.Printf("loadgen: -record: recording finalized in %s (%d records, %d errors) — verify with: go run ./cmd/replay -dir %s",
			dir, m.RecorderRecords, m.RecorderErrors, dir)
	}
	return "http://" + ln.Addr().String(), finish
}
