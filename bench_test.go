// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (run the cmd/experiments binary for the full printed tables;
// these benches time a reduced sweep of the same code and report the key
// headline metric via ReportMetric), plus ablation benches for the design
// choices called out in DESIGN.md and micro-benchmarks of the scheduling
// kernel. The BenchmarkKernel* family is what `make bench` records into
// BENCH_kernel.json.
//
//	go test -bench=. -benchmem
package aheft_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"aheft"
	"aheft/internal/cost"
	"aheft/internal/data"
	"aheft/internal/drive"
	"aheft/internal/durable"
	"aheft/internal/experiment"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/server"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// benchCfg is the reduced configuration all table/figure benches share.
func benchCfg() experiment.Config {
	return experiment.Config{Samples: 2, Seed: 1, AppJobCap: 200, WithMinMin: true}
}

// runExperiment drives one registry entry b.N times and reports the first
// row's headline number so regressions in *results* (not just speed) are
// visible in benchmark diffs.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchCfg()
	runner := experiment.Registry[id]
	if runner == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var last *experiment.Table
	for i := 0; i < b.N; i++ {
		t, err := runner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last != nil && len(last.Rows) > 0 {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(last.Rows[0][1], "%"), 64); err == nil {
			b.ReportMetric(v, "row0")
		}
	}
}

// --- One benchmark per table and figure of the evaluation (§4). ---

// BenchmarkFig5_SampleDAG regenerates the Fig. 4/5 worked example
// (HEFT 80, AHEFT 76).
func BenchmarkFig5_SampleDAG(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkHeadline_RandomDAGs regenerates the §4.2 summary (HEFT vs AHEFT
// vs dynamic Min-Min average makespans).
func BenchmarkHeadline_RandomDAGs(b *testing.B) { runExperiment(b, "headline") }

// BenchmarkTable3_CCR regenerates Table 3 (random DAGs, improvement vs
// CCR).
func BenchmarkTable3_CCR(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4_Jobs regenerates Table 4 (random DAGs, improvement vs
// job count).
func BenchmarkTable4_Jobs(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable6_Apps regenerates Table 6 (BLAST/WIEN2K average makespans
// and improvement).
func BenchmarkTable6_Apps(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkTable7_AppJobs regenerates Table 7 (applications, improvement
// vs job count).
func BenchmarkTable7_AppJobs(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkTable8_AppCCR regenerates Table 8 (applications, improvement vs
// CCR).
func BenchmarkTable8_AppCCR(b *testing.B) { runExperiment(b, "table8") }

// BenchmarkFig8a_CCR regenerates Fig. 8(a): makespan vs CCR.
func BenchmarkFig8a_CCR(b *testing.B) { runExperiment(b, "fig8a") }

// BenchmarkFig8b_Beta regenerates Fig. 8(b): makespan vs β.
func BenchmarkFig8b_Beta(b *testing.B) { runExperiment(b, "fig8b") }

// BenchmarkFig8c_Jobs regenerates Fig. 8(c): makespan vs job count.
func BenchmarkFig8c_Jobs(b *testing.B) { runExperiment(b, "fig8c") }

// BenchmarkFig8d_Pool regenerates Fig. 8(d): makespan vs initial pool.
func BenchmarkFig8d_Pool(b *testing.B) { runExperiment(b, "fig8d") }

// BenchmarkFig8e_Interval regenerates Fig. 8(e): makespan vs change
// interval Δ.
func BenchmarkFig8e_Interval(b *testing.B) { runExperiment(b, "fig8e") }

// BenchmarkFig8f_Pct regenerates Fig. 8(f): makespan vs change percentage
// δ.
func BenchmarkFig8f_Pct(b *testing.B) { runExperiment(b, "fig8f") }

// --- Ablation benches for the design choices DESIGN.md calls out. ---

func benchScenario(b *testing.B, jobs int) *workload.Scenario {
	b.Helper()
	r := rng.New(0xBE)
	sc, err := workload.RandomScenario(workload.RandomParams{
		Jobs: jobs, CCR: 5, OutDegree: 0.3, Beta: 0.5, Alpha: 2,
	}, workload.GridParams{
		InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 6,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func benchAdaptive(b *testing.B, opts ...aheft.Option) {
	b.Helper()
	sc := benchScenario(b, 80)
	ctx := context.Background()
	var mk float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool, opts...)
		if err != nil {
			b.Fatal(err)
		}
		mk = res.Makespan
	}
	b.ReportMetric(mk, "makespan")
}

// BenchmarkAblation_Insertion: classic insertion-based slot policy.
func BenchmarkAblation_Insertion(b *testing.B) { benchAdaptive(b) }

// BenchmarkAblation_NoInsertion: append-only placement.
func BenchmarkAblation_NoInsertion(b *testing.B) {
	benchAdaptive(b, aheft.WithNoInsertion())
}

// BenchmarkAblation_PinRunning: paper-faithful pinning of running jobs.
func BenchmarkAblation_PinRunning(b *testing.B) { benchAdaptive(b) }

// BenchmarkAblation_RestartRunning: restart semantics for running jobs.
func BenchmarkAblation_RestartRunning(b *testing.B) {
	benchAdaptive(b, aheft.WithRestartRunning())
}

// BenchmarkAblation_TieWindow: near-tie rank-order exploration.
func BenchmarkAblation_TieWindow(b *testing.B) {
	benchAdaptive(b, aheft.WithTieWindow(0.05))
}

// --- Micro-benchmarks of the scheduling kernel. ---
//
// The BenchmarkKernel* family is the contract `make bench` snapshots into
// BENCH_kernel.json: ns/op and allocs/op of the placement and reschedule
// hot paths on layered stress DAGs (5k–20k jobs), plus the end-to-end
// adaptive run. BENCH_baseline.json pins the pre-kernel numbers recorded
// at the refactor boundary.

// kernelScenario builds a layered stress case: jobs/50-wide layers, fan-in
// 3, a 16-resource pool growing 25% every 500 time units.
func kernelScenario(b *testing.B, jobs int) *workload.Scenario {
	b.Helper()
	r := rng.New(0x5EED)
	sc, err := workload.LayeredScenario(workload.LayeredParams{
		Jobs: jobs, Width: jobs / 50, FanIn: 3, CCR: 1, Beta: 0.5,
	}, workload.GridParams{
		InitialResources: 16, ChangeInterval: 500, ChangePct: 0.25, MaxEvents: 4,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkKernelPlacement times one full static placement pass (ranks +
// EFT loop) at stress sizes.
func BenchmarkKernelPlacement(b *testing.B) {
	for _, jobs := range []int{1000, 5000, 20000} {
		jobs := jobs
		b.Run(fmt.Sprintf("v=%d", jobs), func(b *testing.B) {
			sc := kernelScenario(b, jobs)
			k := kernel.New(sc.Graph, sc.Estimator())
			rs := sc.Pool.Initial()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Static(rs, kernel.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// advanceBench progresses st tracker-style against the adopted schedule s
// — finishes with ship-on-filename transfers, pins for running jobs — the
// way the daemon's feedback loop maintains its state between evaluations.
// It returns the running (pinned) assignments for perturbation.
func advanceBench(sc *workload.Scenario, st *kernel.State, s *schedule.Schedule, clock float64) []schedule.Assignment {
	g := sc.Graph
	st.Clock = clock
	st.ClearPinned()
	var running []schedule.Assignment
	for _, j := range g.Jobs() {
		a, ok := s.Get(j.ID)
		if !ok {
			continue
		}
		switch {
		case a.Finish <= clock:
			st.Finish(j.ID, a.Resource, a.Start, a.Finish)
			for _, e := range g.Succs(j.ID) {
				st.SetTransfer(j.ID, e.To, a.Resource, a.Finish)
				if sa, ok := s.Get(e.To); ok {
					st.SetTransfer(j.ID, e.To, sa.Resource, a.Finish+cost.Comm(e, a.Resource, sa.Resource))
				}
			}
		case a.Start < clock:
			st.Pin(a)
			running = append(running, a)
		}
	}
	return running
}

// toggleOccupancy serves a mutable foreign claim on one resource, for the
// contention-trigger benches.
type toggleOccupancy struct {
	r    grid.ID
	busy []kernel.Busy
}

func (o *toggleOccupancy) AppendBusy(r grid.ID, buf []kernel.Busy) []kernel.Busy {
	if r == o.r {
		return append(buf, o.busy...)
	}
	return buf
}

// BenchmarkKernelReschedule times one full mid-execution replan — the
// operation the Planner performs per trigger — at stress sizes, exactly as
// the engine drives it: one kernel per run, its dense state maintained and
// rescheduled per event.
//
// The v=N variants are the historical pool-event numbers (resource set
// changed, ranks recomputed, state re-snapshotted) — BENCH_baseline.json
// gates v=5000 at ≥2x fewer allocs/op than the pre-kernel path, so their
// names must stay stable. The trigger=* variants split the cost by trigger
// kind so BENCH_kernel.json trajectories stay attributable: variance and
// contention replan over an unchanged resource set (warm rank cache),
// while arrival and departure pay rank recomputation over a changed one —
// alike today, tracked separately so either can drift alone.
func BenchmarkKernelReschedule(b *testing.B) {
	for _, jobs := range []int{1000, 5000, 20000} {
		jobs := jobs
		b.Run(fmt.Sprintf("v=%d", jobs), func(b *testing.B) {
			sc := kernelScenario(b, jobs)
			est := sc.Estimator()
			k := kernel.New(sc.Graph, est)
			s0, err := k.Static(sc.Pool.Initial(), kernel.Options{})
			if err != nil {
				b.Fatal(err)
			}
			clock := s0.Makespan() / 3
			rs := sc.Pool.AvailableAt(clock)
			st := k.NewState(sc.Pool.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A real pool event changes the resource set, so every
				// production reschedule recomputes the upward ranks;
				// invalidate the cache so each op pays the same work.
				k.InvalidateRanks()
				st.Snapshot(s0, clock, kernel.SnapshotOptions{})
				if _, err := k.Reschedule(rs, st, kernel.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, trigger := range []string{"variance", "arrival", "departure", "contention"} {
		trigger := trigger
		b.Run(fmt.Sprintf("trigger=%s/v=5000", trigger), func(b *testing.B) {
			sc := kernelScenario(b, 5000)
			est := sc.Estimator()
			k := kernel.New(sc.Graph, est)
			occ := &toggleOccupancy{}
			if trigger == "contention" {
				k.SetOccupancy(occ)
			}
			s0, err := k.Static(sc.Pool.Initial(), kernel.Options{})
			if err != nil {
				b.Fatal(err)
			}
			clock := s0.Makespan() / 3
			rsFull := sc.Pool.AvailableAt(clock)
			rsSmall := rsFull[:len(rsFull)-1]
			st := k.NewState(sc.Pool.Size())
			running := advanceBench(sc, st, s0, clock)
			if len(running) == 0 {
				b.Fatal("no running jobs at the bench clock")
			}
			pin := running[0]
			occ.r = rsFull[0].ID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs := rsFull
				switch trigger {
				case "variance":
					// One running job's revised runtime alternates, so
					// consecutive evaluations always see a changed pin.
					fin := pin.Finish
					if i%2 == 0 {
						fin += 0.1 * (pin.Finish - pin.Start)
					}
					st.Pin(schedule.Assignment{Job: pin.Job, Resource: pin.Resource, Start: pin.Start, Finish: fin})
				case "arrival", "departure":
					// The resource set changed: ranks must be recomputed.
					if i%2 == 0 {
						rs = rsSmall
					}
					k.InvalidateRanks()
				case "contention":
					// A foreign reservation appears and disappears.
					occ.busy = occ.busy[:0]
					if i%2 == 0 {
						occ.busy = append(occ.busy, kernel.Busy{Start: clock, Finish: clock + 50})
					}
				}
				if _, err := k.Reschedule(rs, st, kernel.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelAdaptiveRun times the full adaptive execution on the 5k
// stress case: initial plan plus one reschedule per pool event, through
// the same engine path production callers use.
func BenchmarkKernelAdaptiveRun(b *testing.B) {
	sc := kernelScenario(b, 5000)
	ctx := context.Background()
	est := sc.Estimator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aheft.Run(ctx, sc.Graph, est, sc.Pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelDataAware times one full static placement pass with a
// data model bound — derived file costs, capacity-channel slot search,
// file-reuse lookups — on the data-heavy two-site scenario, beside the
// identical graph's classic pass (no model, raw edge weights) so the
// data path's overhead stays attributable. The classic variant also pins
// the no-files contract: edge-cost derivation is gated on the bound
// model, so its trajectory must track BenchmarkKernelPlacement's.
// mode=reschedule is the data pass a live evaluation runs: the same
// kernel replanning at half the static makespan, history and pins in
// place. v=1026 is benchmark/'s live_data_staging size; the merge job's
// fan-in grows with v, so a cost that is not linear in it shows as a
// per-job time that rises down the rows.
func BenchmarkKernelDataAware(b *testing.B) {
	for _, searches := range []int{64, 512, 1024} {
		sc := workload.DataScenario(workload.DataParams{Searches: searches})
		for _, mode := range []string{"classic", "data", "reschedule", "price"} {
			b.Run(fmt.Sprintf("v=%d/mode=%s", sc.Graph.Len(), mode), func(b *testing.B) {
				k := kernel.New(sc.Graph, sc.Estimator())
				if mode != "classic" {
					m, err := data.NewModel(sc.Files, sc.Pool, sc.Graph, 0)
					if err != nil {
						b.Fatal(err)
					}
					k.SetData(m)
				}
				rs := sc.Pool.Initial()
				var st *kernel.State
				var s1 *schedule.Schedule
				if mode == "reschedule" || mode == "price" {
					s0, err := k.Static(rs, kernel.Options{})
					if err != nil {
						b.Fatal(err)
					}
					st = k.NewState(sc.Pool.Size())
					st.Snapshot(s0, s0.Makespan()/2, kernel.SnapshotOptions{})
					if s1, err = k.Reschedule(rs, st, kernel.Options{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "price" {
						k.Price(rs, st, s1)
					} else if _, err := k.Reschedule(rs, st, kernel.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Daemon throughput benches. ---
//
// BenchmarkServer* is the contract `make bench-server` snapshots into
// BENCH_server.json: end-to-end workflows/sec through the aheftd server
// core — HTTP submission in the wire format, shard routing, the
// kernel-backed engine, and SSE completion — reported as the wf/s
// metric. Run against the committed snapshot with cmd/benchcmp.

// serverBenchBodies pre-encodes distinct paper-scale submissions so the
// benchmark measures the daemon, not the generator.
func serverBenchBodies(b *testing.B, n int) [][]byte {
	b.Helper()
	r := rng.New(0xD0E)
	out := make([][]byte, n)
	for i := range out {
		sc, err := workload.RandomScenario(workload.RandomParams{
			Jobs: 60, CCR: 2, OutDegree: 0.3, Beta: 0.5,
		}, workload.GridParams{
			InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4,
		}, r)
		if err != nil {
			b.Fatal(err)
		}
		body, err := wire.EncodeSubmission(&wire.Submission{
			Policy: "aheft", Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool,
		})
		if err != nil {
			b.Fatal(err)
		}
		out[i] = body
	}
	return out
}

// benchServerThroughput drives b.N workflows end to end: each op is one
// POST plus an SSE follow to the terminal event.
func benchServerThroughput(b *testing.B, cfg server.Config) {
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	bodies := serverBenchBodies(b, 8)
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}
	var next atomic.Int64
	b.SetParallelism(4) // keep several workflows in flight per core
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := bodies[int(next.Add(1))%len(bodies)]
			resp, err := client.Post(ts.URL+"/v1/workflows", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusAccepted {
				b.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			var sub wire.Submitted
			err = json.NewDecoder(resp.Body).Decode(&sub)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			ev, err := client.Get(ts.URL + "/v1/workflows/" + sub.ID + "/events")
			if err != nil {
				b.Fatal(err)
			}
			stream, err := io.ReadAll(ev.Body)
			ev.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Contains(stream, []byte(`"kind":"done"`)) {
				b.Fatalf("workflow %s did not complete: %s", sub.ID, stream)
			}
		}
	})
	b.StopTimer()
	if m := srv.MetricsSnapshot(); m.EventsDropped != 0 || m.Failed != 0 {
		b.Fatalf("bench run lost events or failed workflows: %+v", m)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "wf/s")
}

// BenchmarkServerThroughput measures daemon workflows/sec at 1 and 4
// shards (60-job random workflows, accurate estimates).
func BenchmarkServerThroughput(b *testing.B) {
	for _, shards := range []int{1, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchServerThroughput(b, server.Config{Shards: shards, QueueDepth: 4096})
		})
	}
}

// BenchmarkServerThroughputWAL is the durability overhead contract: the
// same end-to-end throughput bench as BenchmarkServerThroughput/shards=4
// with the per-shard WAL journaling every submission and terminal record
// under each fsync policy. "interval" (the default) is the number to
// compare against the no-WAL baseline; "always" prices an fsync per
// append.
func BenchmarkServerThroughputWAL(b *testing.B) {
	for _, policy := range []string{"off", "interval", "always"} {
		policy := policy
		b.Run("sync="+policy, func(b *testing.B) {
			benchServerThroughput(b, server.Config{
				Shards: 4, QueueDepth: 4096,
				DataDir: b.TempDir(), WALSync: policy,
			})
		})
	}
}

// BenchmarkServerThroughputTraced is the observability overhead
// contract: the same end-to-end bench as
// BenchmarkServerThroughput/shards=4 with the causal span tracer on —
// intake/queue/plan spans on every workflow, per-stage latency windows
// rolled into /metrics. The acceptance bar is < 5% below the untraced
// shards=4 entry in BENCH_server.json.
func BenchmarkServerThroughputTraced(b *testing.B) {
	benchServerThroughput(b, server.Config{Shards: 4, QueueDepth: 4096, Tracing: true})
}

// blastLife is one recorded closed-loop enactment of the benchmark's
// 50-job BLAST shape (noise 0.2, churn 0.3): the scenario and every
// report body the enactor posted, in order. The durability benches
// replay a prefix of it into durable daemons, so what they append and
// recover is what a daemon under the live workload holds mid-flight.
type blastLife struct {
	sc      *workload.Scenario
	reports [][]byte
}

func recordBlastLife(b *testing.B) blastLife {
	b.Helper()
	sc, err := workload.BlastScenario(
		workload.AppParams{Parallelism: 24, CCR: 1, Beta: 0.5},
		workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4},
		rng.New(0xB1A57))
	if err != nil {
		b.Fatal(err)
	}
	l := blastLife{sc: sc}
	srv := server.New(server.Config{Shards: 1})
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// drive.Run is one sequential client, so the tap needs no lock.
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/report") {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			l.reports = append(l.reports, body)
		}
		h.ServeHTTP(w, r)
	}))
	defer func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	}()
	if _, err := drive.Run(context.Background(), drive.Config{
		Client: drive.Client{Base: ts.URL, HTTP: ts.Client()}, Noise: 0.2, Churn: 0.3, Seed: 7,
	}, []drive.Tenant{{
		History: "life", Scenario: sc, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2},
	}}); err != nil {
		b.Fatal(err)
	}
	return l
}

// crashMidFlight fills a durable daemon on cfg.DataDir with n workflows
// (one tenant each, so every replay sees the history the recording saw),
// replays the first half of the life into each, kills the daemon and
// returns the workflows' IDs.
func (l blastLife) crashMidFlight(b *testing.B, cfg server.Config, n int) []string {
	b.Helper()
	srv, err := server.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	f := &feedbackBench{ts: ts, sc: l.sc}
	var ids []string
	for i := 0; i < n; i++ {
		body, err := wire.EncodeSubmission(&wire.Submission{
			Mode: wire.ModeLive, Policy: "aheft", Tenant: fmt.Sprintf("bench-%d", i),
			Options: wire.Options{VarianceThreshold: 0.2},
			Graph:   l.sc.Graph, Comp: l.sc.Table, Pool: l.sc.Pool,
		})
		if err != nil {
			b.Fatal(err)
		}
		id, _ := f.submitBody(b, body)
		ids = append(ids, id)
		for _, rep := range l.reports[:len(l.reports)/2] {
			resp, err := ts.Client().Post(ts.URL+"/v1/workflows/"+id+"/report", "application/json", bytes.NewReader(rep))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("replayed report: HTTP %d", resp.StatusCode)
			}
		}
	}
	ts.Close()
	srv.Crash()
	return ids
}

// copyTree copies a data directory (regular files, one level of shard
// directories) and returns the bytes copied.
func copyTree(b *testing.B, src, dst string) int64 {
	b.Helper()
	var n int64
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n += int64(len(data))
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkWALAppend isolates the durable store's hot path: one
// length-prefixed CRC-framed record appended to a shard WAL per op. The
// payloads are what the daemon appends per report: the state records of
// a crashed mid-flight BLAST workflow's log, cycled in log order (they
// are bimodal — a few hundred bytes for a plain report, a few KB when a
// reschedule moves the plan — so no single record stands for them).
// wal_B/op is the framed bytes per append.
func BenchmarkWALAppend(b *testing.B) {
	l := recordBlastLife(b)
	cfg := server.Config{Shards: 1, DataDir: b.TempDir(), WALSync: "off", SnapshotInterval: time.Hour}
	l.crashMidFlight(b, cfg, 1)
	rec, err := durable.Load(filepath.Join(cfg.DataDir, "shard-0"))
	if err != nil {
		b.Fatal(err)
	}
	var states []wire.RawDoc
	for _, r := range rec.Records {
		if r.Kind == wire.WALState {
			states = append(states, wire.RawDoc(r.Data))
		}
	}
	for _, policy := range []string{"off", "interval", "always"} {
		policy := policy
		b.Run("sync="+policy, func(b *testing.B) {
			pol, err := durable.ParseSyncPolicy(policy)
			if err != nil {
				b.Fatal(err)
			}
			store, _, err := durable.Open(b.TempDir(), pol, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Append(wire.WALState, states[i%len(states)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_, written, _ := store.Counters()
			b.ReportMetric(float64(written)/float64(b.N), "wal_B/op")
		})
	}
}

// BenchmarkRecovery measures startup replay: each op opens a data
// directory holding 32 crashed BLAST workflows, each half-way through
// its reports (a whole state, then a chain of patch records, per
// workflow; tenant histories; no snapshot), and rebuilds the resident
// daemon state. wf/s is recovered workflows per second, MB/s the journal
// bytes replayed per second. The crashed directory is restored before
// every op — recovery repairs torn tails in place.
// Recovery folds the four shard directories on GOMAXPROCS workers:
// procs=1 is the one-worker cost, procs=2 what a second core buys. The
// *_ms metrics are RecoveryStats' phase split, per recovery.
func BenchmarkRecovery(b *testing.B) {
	const workflows = 32
	l := recordBlastLife(b)
	crashed := b.TempDir()
	ids := l.crashMidFlight(b, server.Config{Shards: 4, QueueDepth: 4096, DataDir: crashed, WALSync: "off", SnapshotInterval: time.Hour}, workflows)
	cfg := server.Config{Shards: 4, QueueDepth: 4096, DataDir: filepath.Join(b.TempDir(), "data"), WALSync: "off", SnapshotInterval: time.Hour}

	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var replayed int64
			var phases [4]float64 // load, fold, restore, snapshot
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.RemoveAll(cfg.DataDir); err != nil {
					b.Fatal(err)
				}
				replayed = copyTree(b, crashed, cfg.DataDir)
				b.StartTimer()
				s, err := server.Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if m := s.MetricsSnapshot(); m.RecoveredWorkflows != workflows {
					b.Fatalf("recovered %d workflows, want %d", m.RecoveredWorkflows, workflows)
				}
				r := s.Recovery()
				for k, ms := range []float64{r.LoadMs, r.FoldMs, r.RestoreMs, r.SnapshotMs} {
					phases[k] += ms
				}
				s.Crash()
				b.StartTimer()
			}
			b.ReportMetric(float64(workflows)*float64(b.N)/b.Elapsed().Seconds(), "wf/s")
			b.ReportMetric(float64(replayed)*float64(b.N)/b.Elapsed().Seconds()/(1<<20), "MB/s")
			b.ReportMetric(float64(replayed)/(1<<10)/workflows, "wal_KB/wf")
			for k, name := range []string{"load_ms", "fold_ms", "restore_ms", "snapshot_ms"} {
				b.ReportMetric(phases[k]/float64(b.N), name)
			}
		})
	}

	// What a restart costs does not end at ready: the next report to each
	// restored workflow journals against whatever base recovery left it,
	// and the restart after that replays what was appended. One op is a
	// restart, the life's next report to every workflow, a crash and a
	// second restart; each phase reports its wall and process CPU time.
	b.Run("restart,report,restart", func(b *testing.B) {
		var wall, cpu [3]time.Duration // restart, reports, second restart
		var replayed int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := os.RemoveAll(cfg.DataDir); err != nil {
				b.Fatal(err)
			}
			copyTree(b, crashed, cfg.DataDir)
			b.StartTimer()
			phase := func(k int, fn func()) {
				t0, c0 := time.Now(), processCPU(b)
				fn()
				wall[k] += time.Since(t0)
				cpu[k] += processCPU(b) - c0
			}
			var s *server.Server
			open := func() {
				var err error
				if s, err = server.Open(cfg); err != nil {
					b.Fatal(err)
				}
			}
			phase(0, open)
			phase(1, func() {
				h := s.Handler()
				for _, id := range ids {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/workflows/"+id+"/report", bytes.NewReader(l.reports[len(l.reports)/2])))
					if w.Code != http.StatusOK {
						b.Fatalf("report after restart: HTTP %d: %s", w.Code, w.Body)
					}
				}
			})
			s.Crash()
			phase(2, open)
			b.StopTimer()
			if m := s.MetricsSnapshot(); m.RecoveredWorkflows != workflows {
				b.Fatalf("second restart recovered %d workflows, want %d", m.RecoveredWorkflows, workflows)
			}
			replayed += s.Recovery().WALBytes
			s.Crash()
			b.StartTimer()
		}
		for k, name := range []string{"restart", "reports", "restart2"} {
			b.ReportMetric(float64(wall[k].Microseconds())/1e3/float64(b.N), name+"_ms")
			b.ReportMetric(float64(cpu[k].Microseconds())/1e3/float64(b.N), name+"_cpu_ms")
		}
		b.ReportMetric(float64(replayed)/(1<<10)/float64(b.N), "restart2_wal_KB")
	})
}

// processCPU is the user and system CPU time this process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// --- Feedback-loop ingest benches (part of `make bench-server`). ---

// feedbackBench hosts one daemon and one resident live workflow for the
// ingest benches.
type feedbackBench struct {
	ts   *httptest.Server
	sc   *workload.Scenario
	id   string
	plan wire.Plan
}

func newFeedbackBench(b *testing.B, varianceThreshold float64) *feedbackBench {
	b.Helper()
	srv := server.New(server.Config{Shards: 1, QueueDepth: 4096})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		ts.Close()
		// The bench deliberately leaves a live workflow resident; a short
		// deadline force-cancels it instead of waiting out a clean drain.
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	r := rng.New(0xFEEDBE)
	sc, err := workload.BlastScenario(workload.AppParams{Parallelism: 24, CCR: 1, Beta: 0.5},
		workload.GridParams{InitialResources: 8, ChangeInterval: 1e9, ChangePct: 0.25, MaxEvents: 1}, r)
	if err != nil {
		b.Fatal(err)
	}
	f := &feedbackBench{ts: ts, sc: sc}
	f.id, f.plan = f.submitLive(b, varianceThreshold)
	return f
}

func (f *feedbackBench) submitLive(b *testing.B, varianceThreshold float64) (string, wire.Plan) {
	b.Helper()
	body, err := wire.EncodeSubmission(&wire.Submission{
		Mode: wire.ModeLive, Policy: "aheft", Tenant: "bench",
		Options: wire.Options{VarianceThreshold: varianceThreshold},
		Graph:   f.sc.Graph, Comp: f.sc.Table, Pool: f.sc.Pool,
	})
	if err != nil {
		b.Fatal(err)
	}
	return f.submitBody(b, body)
}

// submitBody submits an encoded live submission and waits for its plan.
func (f *feedbackBench) submitBody(b *testing.B, body []byte) (string, wire.Plan) {
	b.Helper()
	resp, err := f.ts.Client().Post(f.ts.URL+"/v1/workflows", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var sub wire.Submitted
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	for {
		pr, err := f.ts.Client().Get(f.ts.URL + "/v1/workflows/" + sub.ID + "/plan")
		if err != nil {
			b.Fatal(err)
		}
		if pr.StatusCode == http.StatusOK {
			var plan wire.Plan
			err = json.NewDecoder(pr.Body).Decode(&plan)
			pr.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			return sub.ID, plan
		}
		pr.Body.Close()
		time.Sleep(time.Millisecond)
	}
}

func (f *feedbackBench) post(b *testing.B, id string, events ...wire.ReportEvent) wire.ReportAck {
	b.Helper()
	body, err := wire.EncodeReport(&wire.Report{Events: events})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := f.ts.Client().Post(f.ts.URL+"/v1/workflows/"+id+"/report", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var ack wire.ReportAck
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		b.Fatalf("report: HTTP %d: %s", resp.StatusCode, msg)
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	return ack
}

// BenchmarkFeedbackIngest measures the daemon's runtime-feedback path.
// "record" is pure Performance-Monitor ingest: each op is one report
// batch (job-started + measured job-finished) folded into the per-tenant
// history with the variance gate never firing; workflows are replaced as
// they complete. "reschedule" forces a full variance-triggered
// rescheduling evaluation (history-based re-estimation + kernel replan +
// pricing S0) on every report.
func BenchmarkFeedbackIngest(b *testing.B) {
	b.Run("record", func(b *testing.B) {
		f := newFeedbackBench(b, 1e9) // variance never triggers
		id, plan := f.id, f.plan
		next, clock := 0, 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if next == len(plan.Assignments) {
				b.StopTimer()
				id, plan = f.submitLive(b, 1e9)
				next, clock = 0, 0
				b.StartTimer()
			}
			a := plan.Assignments[next]
			next++
			dur := a.Finish - a.Start
			ack := f.post(b, id,
				wire.ReportEvent{Kind: wire.ReportJobStarted, Time: clock, Job: a.Job, Resource: a.Resource},
				wire.ReportEvent{Kind: wire.ReportJobFinished, Time: clock + dur, Job: a.Job, Duration: dur},
			)
			if ack.Applied != 2 {
				b.Fatalf("ack: %+v", ack)
			}
			clock += dur
		}
		b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("reschedule", func(b *testing.B) {
		f := newFeedbackBench(b, 1e9)
		// Hold one job running forever; every variance report on it forces
		// an evaluation over the remaining jobs.
		a := f.plan.Assignments[0]
		f.post(b, f.id, wire.ReportEvent{Kind: wire.ReportJobStarted, Time: 0, Job: a.Job, Resource: a.Resource})
		clock := 1.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate the revised runtime so consecutive evaluations see
			// different pins.
			rev := (a.Finish - a.Start) * (1.5 + 0.5*float64(i%2))
			ack := f.post(b, f.id, wire.ReportEvent{
				Kind: wire.ReportVariance, Time: clock, Job: a.Job, Duration: rev,
			})
			if ack.Decisions != 1 {
				b.Fatalf("ack: %+v", ack)
			}
			clock++
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/s")
	})
}

// --- Smaller end-to-end benches retained from the paper-scale suite. ---

// BenchmarkAHEFTReschedule times one one-shot mid-execution reschedule
// at the paper's workflow sizes: a fresh kernel, a dense snapshot and the
// reschedule, per op.
func BenchmarkAHEFTReschedule(b *testing.B) {
	for _, jobs := range []int{50, 200, 1000} {
		jobs := jobs
		b.Run(fmt.Sprintf("v=%d", jobs), func(b *testing.B) {
			sc := benchScenario(b, jobs)
			est := sc.Estimator()
			s0, err := kernel.New(sc.Graph, est).Static(sc.Pool.Initial(), kernel.Options{})
			if err != nil {
				b.Fatal(err)
			}
			clock := s0.Makespan() / 3
			rs := sc.Pool.AvailableAt(clock)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := kernel.New(sc.Graph, est)
				st := k.NewState(sc.Pool.Size())
				st.Snapshot(s0, clock, kernel.SnapshotOptions{})
				if _, err := k.Reschedule(rs, st, kernel.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinMinRun times the dynamic baseline end to end through the v2
// facade.
func BenchmarkMinMinRun(b *testing.B) {
	ctx := context.Background()
	for _, jobs := range []int{50, 200} {
		jobs := jobs
		b.Run(fmt.Sprintf("v=%d", jobs), func(b *testing.B) {
			sc := benchScenario(b, jobs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool, aheft.WithPolicy("minmin")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdaptiveRun times the full adaptive execution (initial plan +
// every event reschedule) — the experiment harness's unit of work.
func BenchmarkAdaptiveRun(b *testing.B) {
	ctx := context.Background()
	for _, jobs := range []int{50, 200} {
		jobs := jobs
		b.Run(fmt.Sprintf("v=%d", jobs), func(b *testing.B) {
			sc := benchScenario(b, jobs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := aheft.Run(ctx, sc.Graph, sc.Estimator(), sc.Pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSharedGridContention measures one full shared-grid
// co-scheduling round through the daemon (part of `make bench-server`):
// a 2-tenant BLAST/WIEN2K mix planned with mutual reservation
// visibility, enacted together on one simulated grid (a resource runs
// one job at a time across tenants, 20% runtime noise, 30% arrival
// churn) with every run-time event reported and cross-workflow
// contention reschedules adopted mid-flight — plus the
// isolated-planning baseline enacted on the identical job stream. One
// op is one complete round; the grid is registered once and reused, and
// every round must drain its reservations to zero.
func BenchmarkSharedGridContention(b *testing.B) {
	srv := server.New(server.Config{Shards: 2, QueueDepth: 4096})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	gp := workload.GridParams{InitialResources: 4, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 2}
	r := rng.New(0x5a12ed)
	bl, err := workload.BlastScenario(workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}, gp, r)
	if err != nil {
		b.Fatal(err)
	}
	wn, err := workload.Wien2kScenario(workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}, gp, r)
	if err != nil {
		b.Fatal(err)
	}
	tenants := []drive.Tenant{
		{Name: "blast", Scenario: bl, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2}},
		{Name: "wien2k", Scenario: wn, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2}},
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := drive.Run(ctx, drive.Config{
			Client: drive.Client{Base: ts.URL, HTTP: ts.Client()}, Grid: "bench",
			Pool: bl.Pool, Noise: 0.2, Churn: 0.3, Seed: uint64(i)*97 + 3,
		}, tenants)
		if err != nil {
			b.Fatal(err)
		}
		if out.FinalReservations != 0 {
			b.Fatalf("round %d leaked %d reservations", i, out.FinalReservations)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkWorkloadGeneration times scenario construction (DAG + costs +
// pool), which dominates sweep startup.
func BenchmarkWorkloadGeneration(b *testing.B) {
	r := rng.New(0xFACE)
	b.Run("random-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.RandomScenario(workload.RandomParams{
				Jobs: 100, CCR: 1, OutDegree: 0.3, Beta: 0.5,
			}, workload.GridParams{InitialResources: 20, ChangeInterval: 400, ChangePct: 0.2}, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blast-500", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.BlastScenario(workload.AppParams{Parallelism: 249, CCR: 1, Beta: 0.5},
				workload.GridParams{InitialResources: 40, ChangeInterval: 400, ChangePct: 0.2}, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("layered-5000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.LayeredScenario(workload.LayeredParams{
				Jobs: 5000, Width: 100, FanIn: 3, CCR: 1, Beta: 0.5,
			}, workload.GridParams{InitialResources: 16, ChangeInterval: 500, ChangePct: 0.25, MaxEvents: 4}, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
