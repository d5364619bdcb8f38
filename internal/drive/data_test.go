package drive_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/server"
	"aheft/internal/workload"
)

// TestDataRoundsBeatOblivious is the data-aware acceptance test at daemon
// scale: rounds of the data-heavy two-site scenario, parameters drawn per
// round, submitted with their file catalogs against ONE link-constrained
// shared grid (registered once, attached by every round) of a 2-shard
// daemon. Each round's data-aware plan is replayed faithfully and priced
// beside the data-oblivious plan of the identical scenario by one referee
// (kernel.Price under the true data semantics). Gates: the aware mean
// beats the oblivious mean, at least one round stages a transfer claim,
// no compute or transfer reservation survives any round or the run, no
// workflow fails daemon-side, and the daemon drains cleanly.
func TestDataRoundsBeatOblivious(t *testing.T) {
	if testing.Short() {
		t.Skip("data-aware acceptance test skipped in -short mode")
	}
	srv := server.New(server.Config{Shards: 2, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const (
		rounds = 32
		seed   = 11
	)
	gen := rng.New(seed ^ 0xda7aab1ade)
	cfg := drive.Config{Client: drive.Client{Base: ts.URL, HTTP: ts.Client()}, Grid: fmt.Sprintf("data-%d", seed)}
	var aware, oblivious float64
	claims := 0
	for round := 0; round < rounds; round++ {
		sc := workload.DataScenario(workload.DataParams{
			Searches: 4 + int(gen.IntN(5)),
			DBSize:   150 + float64(gen.IntN(101)),
			HitSize:  4 + float64(gen.IntN(9)),
			// LinkBW stays at the default so the pool, and with it the
			// grid registration, is identical across rounds.
		})
		out, staged, err := drive.RunData(context.Background(), cfg,
			drive.Tenant{Name: fmt.Sprintf("data-%d", round), Scenario: sc, Policy: "aheft"})
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
		claims += staged
	}
	if claims == 0 {
		t.Fatal("no round staged a single transfer claim: the data path was never exercised")
	}
	if aware >= oblivious {
		t.Fatalf("aware mean %.1f does not beat oblivious mean %.1f", aware/rounds, oblivious/rounds)
	}
	t.Logf("%d rounds on one grid: aware mean %.1f vs oblivious %.1f, %d link claims staged",
		rounds, aware/rounds, oblivious/rounds, claims)

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
