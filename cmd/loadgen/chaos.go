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
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"time"

	"aheft/internal/buildinfo"
	"aheft/internal/server"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// chaosParams carries the -chaos flags.
type chaosParams struct {
	daemon    string // path to the aheftd binary
	addr      string // host:port the spawned daemon listens on
	dataDir   string // durability directory (empty = fresh temp dir)
	walSync   string
	workflows int
	out       string
}

// ChaosReport is the chaos-run summary written to -out.
type ChaosReport struct {
	Versions          versionStamp `json:"versions"`
	Workflows         int          `json:"workflows"`
	SharedWorkflows   int          `json:"shared_workflows"`
	PrefixedWorkflows int          `json:"prefixed_workflows"`
	// The recovered daemon's /v1/healthz recovery breakdown:
	// recovered_workflows, recovery_ms and its load/fold/restore/snapshot
	// split, journal bytes and records replayed.
	server.RecoveryStats
	DowntimeMs      float64           `json:"downtime_ms"`
	DuplicatesAcked int               `json:"duplicates_acked"`
	Completed       int               `json:"completed"`
	ServerMetrics   server.MetricsDoc `json:"server_metrics"`
}

// chaosMain is the -chaos entry point. Any violated invariant is fatal
// (non-zero exit), so CI can run this as the crash-recovery smoke gate.
func chaosMain(p chaosParams) {
	if p.daemon == "" {
		log.Fatal("loadgen: -chaos requires -chaos-daemon (path to an aheftd binary)")
	}
	if p.workflows < 10 {
		log.Fatal("loadgen: -chaos-workflows must be >= 10")
	}
	dir := p.dataDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "aheftd-chaos-*"); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		defer os.RemoveAll(dir)
	}

	c := &chaosRun{
		p:      p,
		base:   "http://" + p.addr,
		client: &http.Client{Timeout: 30 * time.Second},
	}
	log.Printf("loadgen: chaos: data dir %s, daemon %s on %s", dir, p.daemon, p.addr)
	proc := c.spawn(dir)
	c.waitReady(30 * time.Second)

	// Phase 1: fill the daemon. A shared grid with two tenants, private
	// live workflows across four more, everything planned and resident,
	// and a third of the private runs with partial progress reported.
	sc := workload.SampleScenario()
	c.putGrid("chaos", sc)
	var ids, sharedIDs []string
	for i := 0; i < p.workflows; i++ {
		if i%10 == 0 {
			tenant := []string{"alice", "bob"}[(i/10)%2]
			id := c.submitShared("chaos", tenant, sc)
			sharedIDs = append(sharedIDs, id)
			ids = append(ids, id)
			continue
		}
		ids = append(ids, c.submitLive(fmt.Sprintf("t%d", i%4), sc))
	}
	plans := make(map[string]*wire.Plan, len(ids))
	for _, id := range ids {
		plans[id] = c.waitPlan(id)
	}
	// Partial prefixes go to private workflows only: reports on shared
	// runs can trigger contention reschedules on their neighbours, which
	// would make the "generation preserved" comparison racy.
	shared := make(map[string]bool, len(sharedIDs))
	for _, id := range sharedIDs {
		shared[id] = true
	}
	prefixes := make(map[string][]wire.ReportEvent)
	for i, id := range ids {
		if i%3 != 0 || shared[id] {
			continue
		}
		prefix := chaosReplay(plans[id], 20, nil)
		ack := c.report(id, prefix)
		if ack.Applied != len(prefix) || ack.Done {
			log.Fatalf("loadgen: chaos: prefix ack for %s: %+v", id, ack)
		}
		prefixes[id] = prefix
	}
	var m server.MetricsDoc
	c.getJSON("/metrics", &m)
	if m.LiveResident != int64(len(ids)) {
		log.Fatalf("loadgen: chaos: %d live resident before kill, want %d", m.LiveResident, len(ids))
	}
	gridBefore := c.gridStatus("chaos")

	// Phase 2: SIGKILL mid-flight, restart on the same directory.
	log.Printf("loadgen: chaos: SIGKILL with %d live workflows (%d shared, %d mid-report)",
		len(ids), len(sharedIDs), len(prefixes))
	killed := time.Now()
	if err := proc.Process.Kill(); err != nil {
		log.Fatalf("loadgen: chaos: kill: %v", err)
	}
	_ = proc.Wait()
	proc = c.spawn(dir)
	c.waitReady(30 * time.Second)
	downtime := time.Since(killed)

	// Phase 3: the recovery gates.
	hz := c.healthz()
	if hz.Status != "ready" || hz.Workflows != uint64(len(ids)) {
		log.Fatalf("loadgen: chaos: healthz after restart: status %q, %s (want %d recovered)", hz.Status, hz.RecoveryStats, len(ids))
	}
	for _, id := range ids {
		plan := c.waitPlan(id)
		want := plans[id]
		if plan.Generation != want.Generation || len(plan.Assignments) != len(want.Assignments) ||
			math.Abs(plan.Makespan-want.Makespan) > 1e-9 {
			log.Fatalf("loadgen: chaos: %s: plan diverged across restart (gen %d→%d, makespan %v→%v)",
				id, want.Generation, plan.Generation, want.Makespan, plan.Makespan)
		}
	}
	if ga := c.gridStatus("chaos"); ga.Reservations != gridBefore.Reservations || ga.Attached != gridBefore.Attached {
		log.Fatalf("loadgen: chaos: grid ledger not reconstructed: before %+v after %+v", gridBefore, ga)
	}
	for id, prefix := range prefixes {
		if ack := c.report(id, prefix); ack.Applied != len(prefix) || ack.Done {
			log.Fatalf("loadgen: chaos: duplicate replay for %s not acked idempotently: %+v", id, ack)
		}
	}

	// Phase 4: drive everything to completion and drain. The plan is
	// re-fetched per workflow: as shared-grid neighbours finish and free
	// capacity, survivors adopt contention reschedules, so the enacted
	// plan can be newer (and better) than the recovered one. The makespan
	// gate compares against the plan actually replayed.
	enacted := make(map[string]*wire.Plan, len(ids))
	for _, id := range ids {
		plan := c.waitPlan(id)
		enacted[id] = plan
		ack := c.report(id, chaosReplay(plan, math.Inf(1), prefixes[id]))
		if !ack.Done {
			log.Fatalf("loadgen: chaos: %s not done after full replay: %+v", id, ack)
		}
	}
	completed := 0
	for _, id := range ids {
		st := c.status(id)
		if st.State != "done" {
			log.Fatalf("loadgen: chaos: workflow %s ended %s: %s", id, st.State, st.Error)
		}
		if math.Abs(st.Makespan-enacted[id].Makespan) > 1e-9 {
			log.Fatalf("loadgen: chaos: %s: makespan %v, enacted plan promised %v", id, st.Makespan, enacted[id].Makespan)
		}
		completed++
	}
	if g := c.gridStatus("chaos"); g.Reservations != 0 || g.Attached != 0 {
		log.Fatalf("loadgen: chaos: leaked shared-grid state after drain: %+v", g)
	}
	c.getJSON("/metrics", &m)
	if m.Failed != 0 {
		log.Fatalf("loadgen: chaos: daemon reports %d failed workflows", m.Failed)
	}
	if m.ReportsDuplicate < uint64(len(prefixes)) {
		log.Fatalf("loadgen: chaos: reports_duplicate=%d, want >= %d", m.ReportsDuplicate, len(prefixes))
	}

	rep := ChaosReport{
		Versions:          versionStamp{Loadgen: buildinfo.String(), Daemon: hz.Version},
		Workflows:         len(ids),
		SharedWorkflows:   len(sharedIDs),
		PrefixedWorkflows: len(prefixes),
		RecoveryStats:     hz.RecoveryStats,
		DowntimeMs:        downtime.Seconds() * 1e3,
		DuplicatesAcked:   len(prefixes),
		Completed:         completed,
		ServerMetrics:     m,
	}
	log.Printf("loadgen: chaos: PASS: %s, downtime %.0fms, %d duplicate replays acked, ledger drained",
		hz.RecoveryStats, rep.DowntimeMs, rep.DuplicatesAcked)
	printAdmission("chaos: server", m)
	if p.out != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(p.out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("loadgen: chaos: write report: %v", err)
		}
		log.Printf("loadgen: wrote %s", p.out)
	}

	// Graceful exit: the recovered daemon must still drain cleanly.
	if err := proc.Process.Signal(os.Interrupt); err != nil {
		log.Fatalf("loadgen: chaos: signal daemon: %v", err)
	}
	if err := proc.Wait(); err != nil {
		log.Fatalf("loadgen: chaos: daemon drain after recovery: %v", err)
	}
}

// chaosRun carries the harness's HTTP plumbing and daemon handle.
type chaosRun struct {
	p      chaosParams
	base   string
	client *http.Client
}

func (c *chaosRun) spawn(dataDir string) *exec.Cmd {
	cmd := exec.Command(c.p.daemon,
		"-addr", c.p.addr, "-shards", "4",
		"-data-dir", dataDir, "-wal-sync", c.p.walSync)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("loadgen: chaos: start daemon: %v", err)
	}
	return cmd
}

type chaosHealthz struct {
	Status  string `json:"status"`
	Version string `json:"version"`
	server.RecoveryStats
}

func (c *chaosRun) healthz() chaosHealthz {
	var hz chaosHealthz
	if err := c.getJSON("/v1/healthz", &hz); err != nil {
		log.Fatalf("loadgen: chaos: healthz: %v", err)
	}
	return hz
}

// waitReady polls /v1/healthz until the daemon answers "ready" — through
// both the pre-listen connection-refused window and the 503 gate while
// recovery replays the WAL.
func (c *chaosRun) waitReady(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		var hz chaosHealthz
		if err := c.getJSON("/v1/healthz", &hz); err == nil && hz.Status == "ready" {
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("loadgen: chaos: daemon not ready after %s", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (c *chaosRun) getJSON(path string, v any) error {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *chaosRun) postJSON(path string, body []byte, v any) (int, error) {
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, fmt.Errorf("%s", e.Error)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (c *chaosRun) putGrid(name string, sc *workload.Scenario) {
	body, err := wire.EncodeGridSpec(&wire.GridSpec{Pool: sc.Pool})
	if err != nil {
		log.Fatalf("loadgen: chaos: encode grid: %v", err)
	}
	req, err := http.NewRequest(http.MethodPut, c.base+"/v1/grids/"+name, bytes.NewReader(body))
	if err != nil {
		log.Fatalf("loadgen: chaos: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		log.Fatalf("loadgen: chaos: register grid: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		log.Fatalf("loadgen: chaos: register grid: HTTP %d", resp.StatusCode)
	}
}

func (c *chaosRun) gridStatus(name string) wire.GridStatus {
	var st wire.GridStatus
	if err := c.getJSON("/v1/grids/"+name, &st); err != nil {
		log.Fatalf("loadgen: chaos: grid status: %v", err)
	}
	return st
}

func (c *chaosRun) submitLive(tenant string, sc *workload.Scenario) string {
	return c.submitBody(&wire.Submission{
		Name: tenant, Mode: wire.ModeLive, Tenant: tenant, Policy: "aheft",
		Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool,
	})
}

func (c *chaosRun) submitShared(gridName, tenant string, sc *workload.Scenario) string {
	return c.submitBody(&wire.Submission{
		Name: tenant, Mode: wire.ModeLive, Tenant: tenant, Policy: "aheft",
		SharedGrid: gridName, Graph: sc.Graph, Comp: sc.Table,
	})
}

func (c *chaosRun) submitBody(sub *wire.Submission) string {
	body, err := wire.EncodeSubmission(sub)
	if err != nil {
		log.Fatalf("loadgen: chaos: encode submission: %v", err)
	}
	var acc wire.Submitted
	code, err := c.postJSON("/v1/workflows", body, &acc)
	if err != nil || code != http.StatusAccepted {
		log.Fatalf("loadgen: chaos: submit: HTTP %d, %v", code, err)
	}
	return acc.ID
}

func (c *chaosRun) waitPlan(id string) *wire.Plan {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var plan wire.Plan
		if err := c.getJSON("/v1/workflows/"+id+"/plan", &plan); err == nil {
			return &plan
		}
		if time.Now().After(deadline) {
			log.Fatalf("loadgen: chaos: no plan for %s after 10s", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *chaosRun) report(id string, events []wire.ReportEvent) *wire.ReportAck {
	body, err := wire.EncodeReport(&wire.Report{Events: events})
	if err != nil {
		log.Fatalf("loadgen: chaos: encode report: %v", err)
	}
	var ack wire.ReportAck
	if code, err := c.postJSON("/v1/workflows/"+id+"/report", body, &ack); code != http.StatusOK {
		log.Fatalf("loadgen: chaos: report %s: HTTP %d, %v", id, code, err)
	}
	return &ack
}

func (c *chaosRun) status(id string) wire.Status {
	var st wire.Status
	if err := c.getJSON("/v1/workflows/"+id, &st); err != nil {
		log.Fatalf("loadgen: chaos: status %s: %v", id, err)
	}
	return st
}

// chaosReplay builds the faithful execution report of plan up to clock
// (starts strictly before, finishes at or before), skipping events the
// applied prefix already covered. A +Inf clock with the pre-kill prefix
// yields exactly the remaining events of the run.
func chaosReplay(plan *wire.Plan, clock float64, applied []wire.ReportEvent) []wire.ReportEvent {
	type key struct {
		kind string
		job  int
	}
	done := make(map[key]bool, len(applied))
	for _, ev := range applied {
		done[key{ev.Kind, ev.Job}] = true
	}
	var evs []wire.ReportEvent
	for _, a := range plan.Assignments {
		if a.Start < clock && !done[key{wire.ReportJobStarted, a.Job}] {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource,
			})
		}
		if a.Finish <= clock && !done[key{wire.ReportJobFinished, a.Job}] {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Resource: a.Resource, Duration: a.Finish - a.Start,
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Kind == wire.ReportJobStarted && evs[j].Kind != wire.ReportJobStarted
	})
	return evs
}
