// Command loadgen is the closed-loop client of the aheftd daemon: traffic
// generator, enactment side of the paper's Fig. 1 loop, and CI smoke
// gate. Every mode is one row of the modes table below — how to build a
// unit of work (a workflow or a round), how to fold the unit's outcome
// into per-class sums, which gates apply — and every row runs on the same
// parts: one paced closed-loop arrival loop (pace.arrive), one daemon
// client and one enactor (internal/drive), one report shape, printer and
// writer, one gate evaluator.
//
// The default mode pre-generates a mix of wire-encoded workflows —
// parametric random DAGs, large layered stress DAGs, and the BLAST/WIEN2K
// application shapes — submits them at a target arrival rate under an
// in-flight cap, follows every workflow to completion, and reports
// achieved throughput and latency percentiles plus the daemon's own
// /metrics document.
//
//	loadgen -addr http://127.0.0.1:7070 -duration 30s -rate 200 \
//	    -mix random=60,blast=15,wien2k=15,layered=10 -out report.json
//
// With -drive each workflow of the mix is submitted in live mode, its
// schedule executed on the simulated grid with -noise runtime
// perturbation and -churn arrival jitter, every run-time event reported
// back, and adopted reschedules enacted mid-flight (drive.Run). The
// report then carries per-class reschedule counts and adaptive-vs-static
// makespan deltas.
//
//	loadgen -addr http://127.0.0.1:7070 -drive -duration 20s \
//	    -mix blast=50,wien2k=50 -noise 0.2 -churn 0.3 \
//	    -require-variance-reschedules 1 -require-beat-static
//
// -shared-grid, -data and -overload run rounds (one at a time, as fast as
// they finish) of several tenants co-scheduled on one named grid;
// -chaos is a script that owns its daemon process. Exit status is
// non-zero when any unit fails, when nothing completes, or when a
// -require-* gate or a mode's built-in gate is violated — so CI can use
// any loadgen run as a smoke gate.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

var (
	addr        = flag.String("addr", "http://127.0.0.1:7070", "daemon base URL")
	duration    = flag.Duration("duration", 30*time.Second, "how long to keep submitting (-overload: per phase)")
	rate        = flag.Float64("rate", 100, "target arrival rate (workflows/sec); 0 = as fast as the in-flight cap allows")
	inflight    = flag.Int("inflight", 600, "max concurrently in-flight workflows (closed-loop cap)")
	mixSpec     = flag.String("mix", "random=60,blast=15,wien2k=15,layered=10", "workload mix weights")
	layeredJobs = flag.Int("layered-jobs", 5000, "layered stress-DAG job count")
	parallelism = flag.Int("parallelism", 24, "BLAST/WIEN2K fan-out")
	seed        = flag.Uint64("seed", 1, "workload-generation seed")
	poll        = flag.Duration("poll", 5*time.Millisecond, "initial status-poll interval (backs off to 500ms)")
	out         = flag.String("out", "", "write the JSON report here")
	noise       = flag.Float64("noise", 0.2, "-drive/-shared-grid: actual-runtime perturbation (fraction)")
	churn       = flag.Float64("churn", 0.3, "-drive/-shared-grid: resource-arrival time jitter (fraction)")
	record      = flag.String("record", "", "spawn an in-process recording daemon and drive the run against it, leaving a cmd/replay-verifiable flight recording in this directory (overrides -addr)")

	driveMode  = flag.Bool("drive", false, "closed-loop enactment mode: live submissions, simulated execution with noise/churn, run-time reports")
	sharedGrid = flag.Bool("shared-grid", false, "shared-grid closed-loop mode: rounds of a two-tenant BLAST/WIEN2K mix co-scheduled on one named grid, measured against the isolated-planning baseline")
	dataMode   = flag.Bool("data", false, "data-aware smoke mode: rounds of the data-heavy two-site scenario submitted with file catalogs against a link-constrained shared grid, measured against the data-oblivious plan, both priced by kernel.Price under the true data semantics, gating on leaked transfer reservations")
	overload   = flag.Bool("overload", false, "overload-fairness mode: calibrate a high-class victim stream, then flood a greedy low-class tenant beside it and gate the victims' p99 degradation, the two-speed upgrade debt, and reservation leaks")
	chaos      = flag.Bool("chaos", false, "crash-recovery mode: spawn a durable daemon, SIGKILL it mid-load, restart it, and gate on the recovery invariants")

	requireZeroDrops     = flag.Bool("require-zero-drops", false, "fail if the daemon reports events_dropped > 0")
	requireInflight      = flag.Int("require-inflight", 0, "fail if the daemon's inflight_peak stays below this")
	requireVarResched    = flag.Int("require-variance-reschedules", 0, "-drive: fail unless every mix class saw at least this many variance-triggered reschedules")
	requireBeatStatic    = flag.Bool("require-beat-static", false, "-drive: fail unless every class's mean adaptive makespan beats the never-reschedule baseline")
	requireContention    = flag.Int("require-contention-reschedules", 0, "-shared-grid: fail unless every tenant class saw at least this many cross-workflow (contention) reschedules")
	requireBeatOblivious = flag.Bool("require-beat-oblivious", false, "-shared-grid/-data: fail unless the mean aware makespan beats the oblivious baseline (per class for -shared-grid, overall for -data)")

	overloadBound  = flag.Float64("overload-bound", 3.0, "-overload: max allowed victim p99 makespan degradation factor under the flood")
	overloadFloods = flag.Int("overload-floods", 8, "-overload: concurrent greedy flooder goroutines")

	chaosDaemon    = flag.String("chaos-daemon", "", "-chaos: path to the aheftd binary to spawn")
	chaosAddr      = flag.String("chaos-addr", "127.0.0.1:7177", "-chaos: listen address for the spawned daemon")
	chaosDataDir   = flag.String("chaos-data-dir", "", "-chaos: durability directory (empty = fresh temp dir, removed afterwards)")
	chaosWALSync   = flag.String("chaos-wal-sync", "interval", "-chaos: daemon WAL fsync policy")
	chaosWorkflows = flag.Int("chaos-workflows", 120, "-chaos: live workflows resident at the kill")
)

// What no invocation ever set is not a flag.
const (
	policyName        = "aheft" // scheduling policy of every submission
	varianceThreshold = 0.2     // daemon-side significant-variance gate of every live submission
	randomJobs        = 60      // random-DAG job count of the mix
	mixVariants       = 8       // distinct pre-generated workflows per mix class
	followCap         = 64      // workflows followed live over SSE at once; the rest are polled
	overloadJobs      = 30      // -overload victim DAG size (grid-hog and flood DAGs are double)
	recordShards      = 4       // -record daemon shard count
)

// mode is one row of the scenario table.
type mode struct {
	on   *bool  // the selecting flag; nil is the default row
	name string // report label and stdout prefix
	// unit names what the arrival loop counts; adaptive and baseline label
	// the two makespans a class row compares.
	unit, adaptive, baseline string
	// run executes the mode on r — building units, pacing them through
	// pace.arrive, folding their outcomes into r — and ends with r.finish.
	run func(r *run) *Report
	// gates reads the -require-* flags that apply to this mode and adds
	// the mode's built-in ones.
	gates func() gates
}

// modes is the table; the first row whose flag is set wins, the last is
// the default.
var modes = []mode{
	{on: chaos, name: "chaos", unit: "workflows", run: runChaos,
		gates: func() gates { return gates{serverFailed: true, duplicates: true} }},
	{on: overload, name: "overload", unit: "rounds", adaptive: "aware", baseline: "oblivious", run: runOverload,
		gates: func() gates {
			return gates{completed: true, noLeaks: true, degradeBound: *overloadBound, twoSpeed: true}
		}},
	{on: dataMode, name: "data", unit: "rounds", adaptive: "aware", baseline: "oblivious", run: runData,
		gates: func() gates {
			return gates{completed: true, noLeaks: true, serverFailed: true, claims: true, beatOverall: *requireBeatOblivious}
		}},
	{on: sharedGrid, name: "shared", unit: "rounds", adaptive: "aware", baseline: "oblivious", run: runShared,
		gates: func() gates {
			return gates{completed: true, noLeaks: true, zeroDrops: true, beatPerClass: *requireBeatOblivious,
				trigger: "contention", triggerLabel: "cross-workflow (contention)", minTriggered: *requireContention}
		}},
	{on: driveMode, name: "drive", unit: "workflows", adaptive: "adaptive", baseline: "static", run: runDrive,
		gates: func() gates {
			return gates{completed: true, zeroDrops: *requireZeroDrops, minInflight: *requireInflight, beatPerClass: *requireBeatStatic,
				trigger: "variance", triggerLabel: "variance-triggered", minTriggered: *requireVarResched}
		}},
	{name: "load", unit: "workflows", run: runLoad,
		gates: func() gates {
			return gates{completed: true, zeroDrops: *requireZeroDrops, minInflight: *requireInflight}
		}},
}

func main() {
	flag.Parse()
	m := &modes[len(modes)-1]
	for i := range modes {
		if modes[i].on != nil && *modes[i].on {
			m = &modes[i]
			break
		}
	}
	r := &run{followSem: make(chan struct{}, followCap)}
	r.rep = Report{Mode: m.name, Unit: m.unit, Adaptive: m.adaptive, Baseline: m.baseline}
	if m.on == chaos {
		if *record != "" {
			log.Fatal("loadgen: -record is incompatible with -chaos (record the chaos daemon with aheftd -record-dir instead)")
		}
	} else {
		if *record != "" {
			base, finish := startRecorded(*record)
			*addr = base
			// A clean drain writes each stream's trailer; a failed gate
			// exits before this, leaving a recording replay refuses.
			defer finish()
		}
		// Every arrival, follower and flooder shares this client; the
		// default transport's two idle conns per host would melt under
		// load and charge the handshake churn to the measured latency.
		conns := *inflight + *overloadFloods + 64
		r.c = &drive.Client{Base: strings.TrimRight(*addr, "/"), HTTP: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
		}}
		if err := r.c.WaitReady(context.Background(), 10*time.Second); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
	}

	rep := m.run(r)
	rep.print()
	if err := rep.write(*out); err != nil {
		log.Fatalf("loadgen: write report: %v", err)
	}
	if bad := violations(rep, m.gates()); len(bad) > 0 {
		for _, v := range bad {
			log.Printf("loadgen: %s", v)
		}
		os.Exit(1)
	}
}

// pace parameterises the one arrival loop.
type pace struct {
	duration time.Duration
	rate     float64 // arrivals/sec; 0 = as fast as the in-flight cap allows
	inflight int     // closed-loop cap; round modes run one round at a time
	// min and max bound the unit count whatever the clock says (0 = no
	// bound); only -overload sets them.
	min, max int
}

// rounds is the pace of the round modes: one round at a time, back to
// back, for -duration.
func rounds() pace { return pace{duration: *duration, inflight: 1} }

// arrive is the paced closed-loop arrival process every mode runs on:
// arrivals paced at rate, capacity bounded by the in-flight semaphore
// (closed loop: when the cap is hit, arrivals wait and the stall is
// counted instead of piling up locally). build is called on the calling
// goroutine in arrival order — so seeded pickers and generators stay
// deterministic — and the work it returns runs on its own goroutine.
// arrive stops at the deadline and returns once every straggler is done:
// window is how long it kept submitting, total includes the stragglers.
func (p pace) arrive(build func(seq int) func()) (units, stalls int, window, total time.Duration) {
	sem := make(chan struct{}, p.inflight)
	var wg sync.WaitGroup
	start := time.Now()
	var interval time.Duration
	if p.rate > 0 {
		interval = time.Duration(float64(time.Second) / p.rate)
	}
	for next := start; ; units++ {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		select {
		case sem <- struct{}{}:
		default:
			// One-at-a-time rounds wait for each other by design; only a
			// concurrent pace that hits its cap has stalled.
			if p.inflight > 1 {
				stalls++
			}
			sem <- struct{}{} // closed loop: wait for a slot
		}
		// The clock is read with the slot in hand: a round mode's next
		// round is decided when the previous one ends, not before.
		if units >= p.min && (time.Since(start) >= p.duration || (p.max > 0 && units >= p.max)) {
			break
		}
		work := build(units)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			work()
		}()
	}
	window = time.Since(start)
	wg.Wait()
	return units, stalls, window, time.Since(start)
}

// runLoad is the default mode: analytic submissions of the mix, each
// followed to its terminal state.
func runLoad(r *run) *Report {
	mix := r.buildMix(false)
	picker := rng.New(*seed ^ 0x10adcafe)
	r.rep.TargetRate = *rate
	p := pace{duration: *duration, rate: *rate, inflight: *inflight}
	return r.finish(p.arrive(func(int) func() {
		c, v := mix.pick(picker)
		return func() { r.follow(c.bodies[v]) }
	}))
}

// runDrive is -drive: each workflow of the mix driven through the
// daemon's feedback loop on its own pool, with per-class
// adaptive-vs-static accounting.
func runDrive(r *run) *Report {
	mix := r.buildMix(true)
	picker := rng.New(*seed ^ 0xd21fe10ad)
	r.rep.TargetRate, r.rep.Noise, r.rep.Churn = *rate, *noise, *churn
	p := pace{duration: *duration, rate: *rate, inflight: *inflight}
	return r.finish(p.arrive(func(seq int) func() {
		c, v := mix.pick(picker)
		runSeed := *seed*1_000_003 + uint64(seq) + 1
		return func() {
			res, err := drive.Run(context.Background(),
				drive.Config{Client: *r.c, Noise: *noise, Churn: *churn, Seed: runSeed},
				[]drive.Tenant{{
					Name:     fmt.Sprintf("%s-drive-%d", c.name, runSeed),
					History:  c.name, // class-scoped history: workflows teach each other
					Scenario: c.scenarios[v],
					Policy:   policyName,
					Options:  wire.Options{VarianceThreshold: varianceThreshold},
				}})
			r.fold(c.name, res, err)
		}
	}))
}

// runShared is -shared-grid: rounds of a two-tenant BLAST/WIEN2K mix
// co-scheduled on one named grid, each round measured against the
// isolated-planning baseline on the identical job stream.
func runShared(r *run) *Report {
	gp := workload.GridParams{InitialResources: 4, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 2}
	app := workload.AppParams{Parallelism: *parallelism, CCR: 1, Beta: 0.5}
	gen := rng.New(*seed ^ 0x56a12ed611d)
	r.classes("blast", "wien2k")
	r.rep.Noise, r.rep.Churn = *noise, *churn
	return r.finish(rounds().arrive(func(round int) func() {
		bl, err := workload.BlastScenario(app, gp, gen)
		if err != nil {
			log.Fatalf("loadgen: shared: %v", err)
		}
		wn, err := workload.Wien2kScenario(app, gp, gen)
		if err != nil {
			log.Fatalf("loadgen: shared: %v", err)
		}
		opts := wire.Options{VarianceThreshold: varianceThreshold}
		tenants := []drive.Tenant{
			{Name: "blast", Scenario: bl, Policy: policyName, Options: opts},
			{Name: "wien2k", Scenario: wn, Policy: policyName, Options: opts},
		}
		// Alternate submission order: the first tenant plans on an empty
		// grid and the second around its reservations, so a fixed order
		// would bill all contention to one class.
		if round%2 == 1 {
			tenants[0], tenants[1] = tenants[1], tenants[0]
		}
		return func() {
			// One grid for the whole run: the pool structure is identical
			// across rounds (costs live in the per-tenant tables, not the
			// pool) and every round drains its reservations to zero before
			// the next begins, so reuse also exercises the
			// register-once/attach-many path.
			res, err := drive.Run(context.Background(), drive.Config{
				Client: *r.c,
				Grid:   fmt.Sprintf("shared-%d", *seed),
				Pool:   bl.Pool,
				Noise:  *noise,
				Churn:  *churn,
				Seed:   *seed*1_000_003 + uint64(round),
			}, tenants)
			r.fold("", res, err)
		}
	}))
}

// runData is -data: rounds of the data-heavy two-site scenario
// (parameters drawn per round) submitted with their file catalogs against
// one link-constrained shared grid, each round's data-aware plan measured
// against the data-oblivious plan of the identical scenario — both
// priced by kernel.Price under the true data semantics — and the grid checked for leaked
// compute and transfer reservations.
func runData(r *run) *Report {
	gen := rng.New(*seed ^ 0xda7aab1ade)
	r.classes("data")
	return r.finish(rounds().arrive(func(round int) func() {
		sc := workload.DataScenario(workload.DataParams{
			Searches: 4 + int(gen.IntN(5)),
			DBSize:   150 + float64(gen.IntN(101)),
			HitSize:  4 + float64(gen.IntN(9)),
			// LinkBW stays at the default so the pool — and therefore the
			// grid registration — is identical across rounds.
		})
		return func() {
			res, err := drive.RunData(context.Background(),
				drive.Config{Client: *r.c, Grid: fmt.Sprintf("data-%d", *seed)},
				drive.Tenant{Name: fmt.Sprintf("data-%d", round), Scenario: sc, Policy: policyName})
			r.fold("data", res, err)
		}
	}))
}
