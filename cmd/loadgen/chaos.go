// Chaos mode: loadgen owns the daemon process. It spawns a durable
// aheftd, fills it with live workflows (private tenants plus a shared
// grid), SIGKILLs it mid-flight, restarts it on the same data directory,
// and gates on the recovery invariants: nothing lost, plans and
// generations preserved, duplicate report replays acked idempotently,
// every resumed run finishing with its planned makespan, and the
// shared-grid ledger leak-free after drain.
//
//	go build -race -o aheftd ./cmd/aheftd
//	loadgen -chaos -chaos-daemon ./aheftd -chaos-workflows 120 -out chaos.json
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/exec"
	"time"

	"aheft/internal/drive"
	"aheft/internal/server"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// ChaosStats is the -chaos section of the report.
type ChaosStats struct {
	SharedWorkflows   int `json:"shared_workflows"`
	PrefixedWorkflows int `json:"prefixed_workflows"`
	// The recovered daemon's /v1/healthz recovery breakdown:
	// recovered_workflows, recovery_ms and its load/fold/restore/snapshot
	// split, journal bytes and records replayed.
	server.RecoveryStats
	DowntimeMs      float64 `json:"downtime_ms"`
	DuplicatesAcked int     `json:"duplicates_acked"`
}

// runChaos is the -chaos row: a script, not a paced loop. A violated
// mid-script invariant is fatal on the spot (the state it would report on
// is gone); what can be judged from the final report is left to the gate
// evaluator.
func runChaos(r *run) *Report {
	if *chaosDaemon == "" {
		log.Fatal("loadgen: -chaos requires -chaos-daemon (path to an aheftd binary)")
	}
	if *chaosWorkflows < 10 {
		log.Fatal("loadgen: -chaos-workflows must be >= 10")
	}
	dir := *chaosDataDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "aheftd-chaos-*"); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		defer os.RemoveAll(dir)
	}
	ctx := context.Background()
	must := func(err error) {
		if err != nil {
			log.Fatalf("loadgen: chaos: %v", err)
		}
	}
	r.c = &drive.Client{Base: "http://" + *chaosAddr, HTTP: &http.Client{Timeout: 30 * time.Second}}
	spawn := func() *exec.Cmd {
		cmd := exec.Command(*chaosDaemon, "-addr", *chaosAddr, "-shards", "4", "-data-dir", dir, "-wal-sync", *chaosWALSync)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		must(cmd.Start())
		must(r.c.WaitReady(ctx, 30*time.Second))
		return cmd
	}
	log.Printf("loadgen: chaos: data dir %s, daemon %s on %s", dir, *chaosDaemon, *chaosAddr)
	start := time.Now()
	proc := spawn()

	// Phase 1: fill the daemon. A shared grid with two tenants, private
	// live workflows across four more, everything planned and resident,
	// and a third of the private runs with partial progress reported.
	sc := workload.SampleScenario()
	must(r.c.EnsureGrid(ctx, "chaos", sc.Pool))
	var ids []string
	shared := map[string]bool{}
	for i := 0; i < *chaosWorkflows; i++ {
		gridName, tenant := "", fmt.Sprintf("t%d", i%4)
		if i%10 == 0 {
			gridName, tenant = "chaos", []string{"alice", "bob"}[(i/10)%2]
		}
		body, err := drive.Submission(gridName, sc.Pool, drive.Tenant{Name: tenant, Scenario: sc, Policy: policyName})
		must(err)
		id, _, err := r.c.Submit(ctx, body)
		must(err)
		ids = append(ids, id)
		if gridName != "" {
			shared[id] = true
		}
	}
	// plan waits out the 409 of a submission still queued, ten seconds at
	// most.
	plan := func(id string) *wire.Plan {
		ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		p, err := r.c.Plan(ctx, id)
		must(err)
		return p
	}
	plans := make(map[string]*wire.Plan, len(ids))
	for _, id := range ids {
		plans[id] = plan(id)
	}
	// replayPrefixes reports every pre-kill prefix and requires it fully
	// applied (the first time) or idempotently acked (after the restart).
	prefixes := make(map[string][]wire.ReportEvent)
	replayPrefixes := func(what string) {
		for id, prefix := range prefixes {
			ack, err := r.c.Report(ctx, id, prefix)
			must(err)
			if ack.Applied != len(prefix) || ack.Done {
				log.Fatalf("loadgen: chaos: %s for %s: %+v", what, id, ack)
			}
		}
	}
	// Partial prefixes go to private workflows only: reports on shared
	// runs can trigger contention reschedules on their neighbours, which
	// would make the "generation preserved" comparison racy.
	for i, id := range ids {
		if i%3 == 0 && !shared[id] {
			prefixes[id] = drive.Replay(plans[id], 20, nil)
		}
	}
	replayPrefixes("prefix ack")
	m, err := scrape(r.c)
	must(err)
	if m.LiveResident != int64(len(ids)) {
		log.Fatalf("loadgen: chaos: %d live resident before kill, want %d", m.LiveResident, len(ids))
	}
	gridBefore, err := r.c.Grid(ctx, "chaos")
	must(err)

	// Phase 2: SIGKILL mid-flight, restart on the same directory.
	log.Printf("loadgen: chaos: SIGKILL with %d live workflows (%d shared, %d mid-report)",
		len(ids), len(shared), len(prefixes))
	killed := time.Now()
	must(proc.Process.Kill())
	_ = proc.Wait()
	proc = spawn()
	downtime := time.Since(killed)

	// Phase 3: the recovery gates.
	var hz struct {
		Status string `json:"status"`
		server.RecoveryStats
	}
	must(r.c.GetJSON(ctx, "/v1/healthz", &hz))
	if hz.Status != "ready" || hz.Workflows != uint64(len(ids)) {
		log.Fatalf("loadgen: chaos: healthz after restart: status %q, %s (want %d recovered)", hz.Status, hz.RecoveryStats, len(ids))
	}
	for _, id := range ids {
		got, want := plan(id), plans[id]
		if got.Generation != want.Generation || len(got.Assignments) != len(want.Assignments) ||
			math.Abs(got.Makespan-want.Makespan) > 1e-9 {
			log.Fatalf("loadgen: chaos: %s: plan diverged across restart (gen %d→%d, makespan %v→%v)",
				id, want.Generation, got.Generation, want.Makespan, got.Makespan)
		}
	}
	ga, err := r.c.Grid(ctx, "chaos")
	must(err)
	if ga.Reservations != gridBefore.Reservations || ga.Attached != gridBefore.Attached {
		log.Fatalf("loadgen: chaos: grid ledger not reconstructed: before %+v after %+v", gridBefore, ga)
	}
	replayPrefixes("duplicate replay not acked idempotently")

	// Phase 4: drive everything to completion and drain. The plan is
	// re-fetched per workflow: as shared-grid neighbours finish and free
	// capacity, survivors adopt contention reschedules, so the enacted
	// plan can be newer (and better) than the recovered one. The makespan
	// gate compares against the plan actually replayed.
	enacted := make(map[string]*wire.Plan, len(ids))
	for _, id := range ids {
		enacted[id] = plan(id)
		ack, err := r.c.Report(ctx, id, drive.Replay(enacted[id], math.Inf(1), prefixes[id]))
		must(err)
		if !ack.Done {
			log.Fatalf("loadgen: chaos: %s not done after full replay: %+v", id, ack)
		}
	}
	for _, id := range ids {
		st, err := r.c.Status(ctx, id)
		must(err)
		if st.State != "done" {
			log.Fatalf("loadgen: chaos: workflow %s ended %s: %s", id, st.State, st.Error)
		}
		if math.Abs(st.Makespan-enacted[id].Makespan) > 1e-9 {
			log.Fatalf("loadgen: chaos: %s: makespan %v, enacted plan promised %v", id, st.Makespan, enacted[id].Makespan)
		}
		r.rep.Completed++
	}
	g, err := r.c.Grid(ctx, "chaos")
	must(err)
	if g.Reservations != 0 || g.Attached != 0 {
		log.Fatalf("loadgen: chaos: leaked shared-grid state after drain: %+v", g)
	}
	r.rep.Chaos = &ChaosStats{
		SharedWorkflows:   len(shared),
		PrefixedWorkflows: len(prefixes),
		RecoveryStats:     hz.RecoveryStats,
		DowntimeMs:        downtime.Seconds() * 1e3,
		DuplicatesAcked:   len(prefixes),
	}
	rep := r.finish(len(ids), 0, time.Since(start), time.Since(start))

	// Graceful exit: the recovered daemon must still drain cleanly.
	must(proc.Process.Signal(os.Interrupt))
	if err := proc.Wait(); err != nil {
		log.Fatalf("loadgen: chaos: daemon drain after recovery: %v", err)
	}
	return rep
}
