package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// TestDriveClosedLoopBeatsStatic is the adaptive-loop acceptance test:
// the daemon under a closed-loop enactment client (internal/drive, the
// same harness loadgen -drive uses) with 20% runtime noise and churned
// resource arrivals must perform variance-triggered reschedules on the
// BLAST and WIEN2K mixes, and the final simulated makespans must beat
// the never-reschedule baseline on average — then the daemon must drain
// cleanly. Workflows are driven sequentially, so the run is
// deterministic and race-instrumented CI exercises the full report path.
func TestDriveClosedLoopBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop acceptance test skipped in -short mode")
	}
	srv := New(Config{Shards: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const perClass = 6
	gp := workload.GridParams{InitialResources: 6, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 4}
	classes := []struct {
		name string
		make func(r *rng.Source) (*workload.Scenario, error)
	}{
		{"blast", func(r *rng.Source) (*workload.Scenario, error) {
			return workload.BlastScenario(workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}, gp, r)
		}},
		{"wien2k", func(r *rng.Source) (*workload.Scenario, error) {
			return workload.Wien2kScenario(workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}, gp, r)
		}},
	}
	for _, class := range classes {
		t.Run(class.name, func(t *testing.T) {
			r := rng.New(0xfeedba5e)
			varianceReschedules, reschedules := 0, 0
			adaptiveSum, staticSum := 0.0, 0.0
			for i := 0; i < perClass; i++ {
				sc, err := class.make(r)
				if err != nil {
					t.Fatal(err)
				}
				res, err := drive.Run(context.Background(), drive.Config{
					Client: drive.Client{Base: ts.URL, HTTP: ts.Client()},
					Noise:  0.2,
					Churn:  0.3,
					Seed:   uint64(1000*i) + 7,
				}, []drive.Tenant{{
					Name:     fmt.Sprintf("%s-%d", class.name, i),
					History:  class.name,
					Scenario: sc,
					Policy:   "aheft",
					Options:  wire.Options{VarianceThreshold: 0.2},
				}})
				if err != nil {
					t.Fatalf("drive %s-%d: %v", class.name, i, err)
				}
				out := &res.Tenants[0]
				if out.DaemonMakespan != out.AdaptiveMakespan {
					t.Fatalf("%s-%d: daemon says %g, simulation measured %g",
						class.name, i, out.DaemonMakespan, out.AdaptiveMakespan)
				}
				varianceReschedules += out.ByTrigger["variance"]
				reschedules += out.Reschedules
				adaptiveSum += out.AdaptiveMakespan
				staticSum += out.BaselineMakespan
				t.Logf("%s-%d: jobs=%d adaptive=%.1f static=%.1f delta=%+.1f%% reschedules=%d (variance=%d arrival=%d) reports=%d gen=%d",
					class.name, i, out.Jobs, out.AdaptiveMakespan, out.BaselineMakespan,
					100*out.Delta(), out.Reschedules, out.ByTrigger["variance"],
					out.ByTrigger["arrival"], out.Reports, out.Generation)
			}
			if varianceReschedules == 0 {
				t.Fatalf("no variance-triggered reschedule across %d %s workflows", perClass, class.name)
			}
			if adaptiveSum > staticSum {
				t.Fatalf("adaptive mean %.1f worse than never-reschedule baseline %.1f",
					adaptiveSum/perClass, staticSum/perClass)
			}
			t.Logf("%s: mean adaptive %.1f vs static %.1f (%.1f%% better), %d reschedules (%d variance)",
				class.name, adaptiveSum/perClass, staticSum/perClass,
				100*(staticSum-adaptiveSum)/staticSum, reschedules, varianceReschedules)
		})
	}

	m := srv.MetricsSnapshot()
	if m.EventsDropped != 0 {
		t.Fatalf("events dropped: %d", m.EventsDropped)
	}
	if m.ReschedulesVariance == 0 || m.Reports == 0 || m.LiveResident != 0 {
		t.Fatalf("loop metrics: %+v", m)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := srv.MetricsSnapshot(); got.Completed != 2*perClass || got.Failed != 0 {
		t.Fatalf("post-drain: completed=%d failed=%d", got.Completed, got.Failed)
	}
}
