package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/stats"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// TestOverloadKeepsVictimsWithinBound is the admission layer's acceptance
// test. It answers "can one greedy tenant ruin everyone else's day?" with
// a measured no, on the daemon configuration the fairness layer is
// specified for: per-tenant backlog bounds and a 50% per-tenant
// reservation share cap on shared grids.
//
// Calibration runs rounds of two high-class victim workflows on a shared
// grid with no competition. Overload reruns the identical rounds (same
// scenarios, same seeds, so the same runtimes) beside a low-class grid hog
// packing four double-size workflows onto the grid and 16 flooders
// submitting low-class analytic workflows, each 429 waited out. The
// victims are measured by makespan, the completion time the scheduler
// produced, not by wall latency, which on a loaded box measures the OS.
//
// The flood reaches the victims only through admission, so each overload
// round makes its backlog deterministic: the shard workers park on flood
// executions until both shards hold the flooder's full tenant backlog (and
// it is drawing 429s) and the round's six submissions have queued behind
// it. Released, the workers dequeue them at depth. The flood stops once
// the round's last submission has left the queue; past that point it
// would only cost wall time.
//
// Gates: the victims' p99 makespan under overload is within 3× of
// calibration, the flood drew 429s, nothing failed, and no compute or
// transfer reservation survives a round or the quiescent daemon, which
// then drains cleanly.
func TestOverloadKeepsVictimsWithinBound(t *testing.T) {
	if testing.Short() {
		t.Skip("overload acceptance test skipped in -short mode")
	}
	const (
		seed          = 7
		rounds        = 8 // per phase
		floods        = 16
		bound         = 3.0
		tenantBacklog = 48
		victimJobs    = 30
	)
	srv := New(Config{Shards: 2, QueueDepth: 64, TenantBacklog: tenantBacklog, GridShareCap: 0.5})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// park, while it holds a channel, stops every analytic (flood)
	// execution at its start until the channel closes.
	var park atomic.Pointer[chan struct{}]
	srv.execHook = func(wf *workflow) {
		if gate := park.Load(); gate != nil && !wf.live {
			<-*gate
		}
	}
	// admitted waits, up to a minute, for the admission metrics to satisfy
	// cond.
	admitted := func(cond func(AdmissionDoc) bool) bool {
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if cond(srv.MetricsSnapshot().Admission) {
				return true
			}
		}
		return false
	}

	// One GridParams for every scenario: the pool is a function of it
	// alone, so every tenant's cost table covers the one shared grid.
	gen := rng.New(seed ^ 0x0e10ad)
	gp := workload.GridParams{InitialResources: 8, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 2}
	four := func(jobs int) []*workload.Scenario {
		var scs []*workload.Scenario
		for i := 0; i < 4; i++ {
			sc, err := workload.RandomScenario(workload.RandomParams{Jobs: jobs, CCR: 1, OutDegree: 0.3, Beta: 0.5}, gp, gen)
			if err != nil {
				t.Fatal(err)
			}
			scs = append(scs, sc)
		}
		return scs
	}
	victims := four(victimJobs)
	// Without the share cap the hog's reservations would blanket the
	// grid's future and push every victim plan out past the bound.
	hogs := four(2 * victimJobs)
	// The flood runs on private pools: it deepens the admission queue
	// without adding reservations of its own.
	var floodBodies [][]byte
	for i, sc := range four(2 * victimJobs) {
		body, err := wire.EncodeSubmission(&wire.Submission{
			Name: fmt.Sprintf("greedy-%d", i), Tenant: "greedy", Policy: "aheft",
			Options: wire.Options{Class: wire.ClassLow},
			Graph:   sc.Graph, Comp: sc.Table, Pool: sc.Pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		floodBodies = append(floodBodies, body)
	}
	client := drive.Client{Base: ts.URL, HTTP: ts.Client()}

	// round runs victim round i: two victims cycling through the four
	// scenarios, plus the hog's four workflows under overload. Seeds match
	// across phases and the victims' noise draws come first, so only the
	// competition differs between a calibration round and its overload
	// twin. It returns the victims' makespans.
	round := func(i int, overload bool) ([]float64, error) {
		opts := wire.Options{Class: wire.ClassHigh, VarianceThreshold: 0.2}
		tenants := []drive.Tenant{
			{Name: "victim", Scenario: victims[(2*i)%len(victims)], Policy: "aheft", Options: opts},
			{Name: "victim", Scenario: victims[(2*i+1)%len(victims)], Policy: "aheft", Options: opts},
		}
		if overload {
			for k, sc := range hogs {
				tenants = append(tenants, drive.Tenant{Name: "greedy-grid", Scenario: sc, Policy: "aheft",
					Options: wire.Options{Class: wire.ClassLow, Weight: float64(1 + k%2)}})
			}
		}
		out, err := drive.Run(context.Background(), drive.Config{
			Client: client, Grid: fmt.Sprintf("overload-%d", seed), Pool: victims[0].Pool,
			Noise: 0.1, Seed: seed*1_000_003 + uint64(i),
		}, tenants)
		if err != nil {
			return nil, err
		}
		if out.FinalReservations != 0 || out.FinalTransferReservations != 0 {
			return nil, fmt.Errorf("left %d compute + %d transfer reservations behind",
				out.FinalReservations, out.FinalTransferReservations)
		}
		return []float64{out.Tenants[0].AdaptiveMakespan, out.Tenants[1].AdaptiveMakespan}, nil
	}

	var calib, over []float64
	for i := 0; i < rounds; i++ {
		ms, err := round(i, false)
		if err != nil {
			t.Fatalf("calibration round %d: %v", i, err)
		}
		calib = append(calib, ms...)
	}

	var offered, rejected atomic.Int64
	for i := 0; i < rounds; i++ {
		gate := make(chan struct{})
		park.Store(&gate)
		ctx, stop := context.WithCancel(context.Background())
		var flooders sync.WaitGroup
		for f := 0; f < floods; f++ {
			flooders.Add(1)
			go func() {
				defer flooders.Done()
				r := rng.New(seed ^ uint64(0xf100d+f))
				for ctx.Err() == nil {
					_, n, err := client.Submit(ctx, floodBodies[r.IntN(len(floodBodies))])
					rejected.Add(int64(n))
					offered.Add(int64(n))
					if err == nil {
						offered.Add(1)
					}
				}
			}()
		}
		full := admitted(func(a AdmissionDoc) bool {
			return a.QueueDepthByTenant["greedy"] == 2*tenantBacklog && a.RejectedByClass[wire.ClassLow] > 0
		})
		// The releaser lets the workers go once the round's submissions
		// have queued behind the backlog, and stops the flood once they
		// have all left the queue.
		released := make(chan bool, 1)
		go func() {
			queued := full && admitted(func(a AdmissionDoc) bool {
				return a.QueueDepthByTenant["victim"] == 2 && a.QueueDepthByTenant["greedy-grid"] == len(hogs)
			})
			park.Store(nil)
			close(gate)
			left := admitted(func(a AdmissionDoc) bool {
				return a.QueueDepthByTenant["victim"] == 0 && a.QueueDepthByTenant["greedy-grid"] == 0
			})
			stop()
			released <- queued && left
		}()
		var ms []float64
		var err error
		if full {
			ms, err = round(i, true)
		}
		stop()
		flooders.Wait()
		switch {
		case !full:
			<-released
			t.Fatalf("overload round %d: the flood never filled both shards' greedy backlog: %+v", i, srv.MetricsSnapshot().Admission)
		case err != nil:
			<-released
			t.Fatalf("overload round %d: %v", i, err)
		case !<-released:
			t.Fatalf("overload round %d: its submissions never queued behind the flood: %+v", i, srv.MetricsSnapshot().Admission)
		}
		over = append(over, ms...)
	}

	// Let the flood's backlog drain, so the leak check sees the daemon
	// quiescent.
	for deadline := time.Now().Add(2 * time.Minute); srv.MetricsSnapshot().Inflight != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("daemon not quiescent after the flood: inflight %d", srv.MetricsSnapshot().Inflight)
		}
	}

	cq, oq := stats.Quantiles(calib, 0.50, 0.99), stats.Quantiles(over, 0.50, 0.99)
	adm := srv.MetricsSnapshot().Admission
	t.Logf("victim p99 makespan %.1f calibrated → %.1f under flood (p50 %.1f → %.1f); flood offered %d, 429 %d; initial p99 %.2fms (n=%d)",
		cq[1], oq[1], cq[0], oq[0], offered.Load(), rejected.Load(), adm.InitialMs.P99, adm.InitialMs.Count)
	if cq[1] <= 0 || oq[1] <= 0 {
		t.Fatalf("a phase produced no victim makespan (p99 %.1f calibrated, %.1f under flood)", cq[1], oq[1])
	}
	if oq[1] > bound*cq[1] {
		t.Errorf("victim p99 makespan degraded %.2f× under the flood, bound %.1f×", oq[1]/cq[1], bound)
	}
	if rejected.Load() == 0 {
		t.Error("the flood never drew a 429")
	}
	if m := srv.MetricsSnapshot(); m.Failed != 0 || m.Reservations != 0 || m.TransferReservations != 0 {
		t.Errorf("quiescent daemon: failed=%d reservations=%d transfer_reservations=%d",
			m.Failed, m.Reservations, m.TransferReservations)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
