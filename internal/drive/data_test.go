package drive_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/server"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// TestDataRoundsBeatOblivious is the data-aware acceptance test at daemon
// scale: rounds of the data-heavy two-site scenario, parameters drawn per
// round, submitted with their file catalogs against ONE link-constrained
// shared grid (registered once, attached by every round) of a 2-shard
// daemon. Each round's data-aware plan is enacted by drive.Run under the
// true data semantics, beside the data-oblivious plan of the identical
// scenario priced by the same truth. Gates: the aware mean beats the
// oblivious mean, at least one round stages a transfer claim while its
// plan is pending, no compute or transfer reservation survives any round
// or the run, no workflow fails daemon-side, and the daemon drains
// cleanly.
func TestDataRoundsBeatOblivious(t *testing.T) {
	if testing.Short() {
		t.Skip("data-aware acceptance test skipped in -short mode")
	}
	const (
		rounds = 32
		seed   = 11
	)
	srv := server.New(server.Config{Shards: 2, QueueDepth: 64})
	claims := &pendingClaims{h: srv.Handler(), grid: fmt.Sprintf("data-%d", seed)}
	ts := httptest.NewServer(claims)
	defer ts.Close()

	gen := rng.New(seed ^ 0xda7aab1ade)
	cfg := drive.Config{Client: drive.Client{Base: ts.URL, HTTP: ts.Client()}, Grid: claims.grid}
	var aware, oblivious float64
	for round := 0; round < rounds; round++ {
		sc := workload.DataScenario(workload.DataParams{
			Searches: 4 + int(gen.IntN(5)),
			DBSize:   150 + float64(gen.IntN(101)),
			HitSize:  4 + float64(gen.IntN(9)),
			// LinkBW stays at the default so the pool, and with it the
			// grid registration, is identical across rounds.
		})
		out, err := drive.Run(context.Background(), cfg,
			[]drive.Tenant{{Name: fmt.Sprintf("data-%d", round), Scenario: sc, Policy: "aheft"}})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if out.FinalReservations != 0 || out.FinalTransferReservations != 0 {
			t.Fatalf("round %d left %d compute + %d transfer reservations behind",
				round, out.FinalReservations, out.FinalTransferReservations)
		}
		row := out.Tenants[0]
		aware += row.AdaptiveMakespan
		oblivious += row.BaselineMakespan
	}
	if claims.total == 0 {
		t.Fatal("no round staged a single transfer claim: the data path was never exercised")
	}
	if aware >= oblivious {
		t.Fatalf("aware mean %.1f does not beat oblivious mean %.1f", aware/rounds, oblivious/rounds)
	}
	t.Logf("%d rounds on one grid: aware mean %.1f vs oblivious %.1f, %d link claims staged",
		rounds, aware/rounds, oblivious/rounds, claims.total)

	m := srv.MetricsSnapshot()
	if m.SharedGrids != 1 || m.Reservations != 0 || m.TransferReservations != 0 || m.Failed != 0 {
		t.Fatalf("after %d rounds: grids=%d reservations=%d transfer_reservations=%d failed=%d",
			rounds, m.SharedGrids, m.Reservations, m.TransferReservations, m.Failed)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := srv.MetricsSnapshot(); got.Completed != rounds || got.Failed != 0 {
		t.Fatalf("post-drain: completed=%d failed=%d", got.Completed, got.Failed)
	}
}

// pendingClaims wraps a daemon's handler: when a workflow's first report
// arrives it adds the named grid's transfer claims to total — the
// reservations staged for plans still pending. An empty grid counts
// nothing.
type pendingClaims struct {
	h     http.Handler
	grid  string
	mu    sync.Mutex
	seen  map[string]bool
	total int
}

func (p *pendingClaims) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.grid != "" && r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/report") {
		p.mu.Lock()
		if !p.seen[r.URL.Path] {
			if p.seen == nil {
				p.seen = map[string]bool{}
			}
			p.seen[r.URL.Path] = true
			rec := httptest.NewRecorder()
			p.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/grids/"+p.grid, nil))
			var st wire.GridStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err == nil {
				p.total += st.TransferReservations
			}
		}
		p.mu.Unlock()
	}
	p.h.ServeHTTP(w, r)
}
