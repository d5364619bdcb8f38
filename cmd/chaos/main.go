// Command chaos is the crash harness of the aheftd daemon, the one check
// that needs a real process boundary. It spawns a durable aheftd, fills it
// with live workflows (private tenants plus a shared grid), SIGKILLs it
// mid-flight, restarts it on the same data directory, and checks the
// recovery invariants: nothing lost, plans and generations preserved,
// duplicate report replays acked idempotently, every resumed run finishing
// with its planned makespan, no workflow failed daemon-side, and the
// shared-grid ledger leak-free after drain. A violated invariant exits 1
// with the spawned daemon killed and the data directory kept.
//
//	go build -race -o bin/aheftd-race ./cmd/aheftd
//	go run ./cmd/chaos -daemon bin/aheftd-race -addr 127.0.0.1:7177 -workflows 120 -out chaos-report.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/exec"
	"time"

	"aheft/internal/buildinfo"
	"aheft/internal/drive"
	"aheft/internal/server"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// options are the command line.
type options struct {
	daemon, addr, dataDir, walSync, out string
	workflows                           int
}

// flags builds the flag set; TestCIInvocationsParse parses the documented
// command lines through it.
func flags(stderr io.Writer) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.daemon, "daemon", "", "path to the aheftd binary to spawn (required)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7177", "listen address for the spawned daemon")
	fs.StringVar(&o.dataDir, "data-dir", "", "durability directory (empty = fresh temp dir, removed after a passing run)")
	fs.StringVar(&o.walSync, "wal-sync", "interval", "daemon WAL fsync policy")
	fs.IntVar(&o.workflows, "workflows", 120, "live workflows resident at the kill (at least 10)")
	fs.StringVar(&o.out, "out", "", "write the JSON report here")
	return fs, o
}

// Report is the run summary -out receives.
type Report struct {
	Versions struct {
		Chaos  string `json:"chaos"`
		Daemon string `json:"daemon,omitempty"`
	} `json:"versions"`
	Workflows         int `json:"workflows"`
	SharedWorkflows   int `json:"shared_workflows"`
	PrefixedWorkflows int `json:"prefixed_workflows"`
	// The recovered daemon's /v1/healthz recovery breakdown:
	// recovered_workflows, recovery_ms and its load/fold/restore/snapshot
	// split, journal bytes and records replayed.
	server.RecoveryStats
	DowntimeMs      float64           `json:"downtime_ms"`
	DuplicatesAcked int               `json:"duplicates_acked"`
	TotalS          float64           `json:"total_s"`
	ServerMetrics   server.MetricsDoc `json:"server_metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the process's exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs, o := flags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.daemon == "" || o.workflows < 10 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "chaos: -daemon names the aheftd binary, -workflows is at least 10, and nothing follows the flags")
		return 2
	}
	logger := log.New(stderr, "chaos: ", log.LstdFlags)
	dir := o.dataDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "aheftd-chaos-*"); err != nil {
			logger.Print(err)
			return 1
		}
	}
	logger.Printf("data dir %s, daemon %s on %s", dir, o.daemon, o.addr)
	rep, err := o.script(dir, logger)
	if err != nil {
		logger.Print(err)
		logger.Printf("daemon killed; data directory kept at %s", dir)
		return 1
	}
	if o.dataDir == "" {
		os.RemoveAll(dir)
	}
	fmt.Fprintf(stdout, "chaos: %s, downtime %.0fms, %d duplicate replays acked, ledger drained\n",
		rep.RecoveryStats, rep.DowntimeMs, rep.DuplicatesAcked)
	m := rep.ServerMetrics
	fmt.Fprintf(stdout, "chaos: server: completed=%d failed=%d reports=%d reports_duplicate=%d grids=%d reservations=%d\n",
		m.Completed, m.Failed, m.Reports, m.ReportsDuplicate, m.SharedGrids, m.Reservations)
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			logger.Printf("write report: %v", err)
			return 1
		}
		logger.Printf("wrote %s", o.out)
	}
	return 0
}

// daemon is one spawned aheftd process.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process is reaped
	err    error         // its exit status; read after exited closes
}

// kill SIGKILLs the daemon and reaps it; a no-op once it has exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// spawn starts a daemon on o.addr over dir and waits until it answers
// ready. An address that already answers /v1/healthz is refused: a daemon
// left over from an earlier run would pass the readiness wait in place of
// the new one, which dies on bind. A new process that exits before it is
// ready fails the spawn at once.
func (o *options) spawn(c *drive.Client, dir string) (*daemon, error) {
	probe := &http.Client{Timeout: time.Second}
	if resp, err := probe.Get(c.Base + "/v1/healthz"); err == nil {
		resp.Body.Close()
		return nil, fmt.Errorf("%s already answers /v1/healthz (HTTP %d) before the daemon is spawned: stop whatever listens there", o.addr, resp.StatusCode)
	}
	cmd := exec.Command(o.daemon, "-addr", o.addr, "-shards", "4", "-data-dir", dir, "-wal-sync", o.walSync)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-d.exited:
			cancel()
		case <-ctx.Done():
		}
	}()
	if err := c.WaitReady(ctx, 30*time.Second); err != nil {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("daemon exited before it was ready: %v", d.err)
		default:
			d.kill()
			return nil, err
		}
	}
	return d, nil
}

// script is the run: fill, kill, restart, check, drain. Every error
// return leaves no daemon behind.
func (o *options) script(dir string, logger *log.Logger) (rep *Report, err error) {
	ctx := context.Background()
	c := &drive.Client{Base: "http://" + o.addr, HTTP: &http.Client{Timeout: 30 * time.Second}}
	start := time.Now()
	// d is the running daemon, nil while none runs (spawn leaves none
	// behind when it fails).
	var d *daemon
	defer func() {
		if err != nil && d != nil {
			d.kill()
		}
	}()
	if d, err = o.spawn(c, dir); err != nil {
		return nil, err
	}

	// Phase 1: fill the daemon. A shared grid with two tenants, private
	// live workflows across four more, everything planned and resident,
	// and a third of the private runs with partial progress reported.
	sc := workload.SampleScenario()
	if err := c.EnsureGrid(ctx, "chaos", sc.Pool); err != nil {
		return nil, err
	}
	var ids []string
	shared := map[string]bool{}
	for i := 0; i < o.workflows; i++ {
		gridName, tenant := "", fmt.Sprintf("t%d", i%4)
		if i%10 == 0 {
			gridName, tenant = "chaos", []string{"alice", "bob"}[(i/10)%2]
		}
		body, err := drive.Submission(gridName, sc.Pool, drive.Tenant{Name: tenant, Scenario: sc, Policy: "aheft"})
		if err != nil {
			return nil, err
		}
		id, _, err := c.Submit(ctx, body)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
		if gridName != "" {
			shared[id] = true
		}
	}
	// plan waits out the 409 of a submission still queued, ten seconds at
	// most.
	plan := func(id string) (*wire.Plan, error) {
		ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		return c.Plan(ctx, id)
	}
	plans := make(map[string]*wire.Plan, len(ids))
	for _, id := range ids {
		if plans[id], err = plan(id); err != nil {
			return nil, err
		}
	}
	// replayPrefixes reports every pre-kill prefix and requires it fully
	// applied (the first time) or idempotently acked (after the restart).
	prefixes := make(map[string][]wire.ReportEvent)
	replayPrefixes := func(what string) error {
		for id, prefix := range prefixes {
			ack, err := c.Report(ctx, id, prefix)
			if err != nil {
				return err
			}
			if ack.Applied != len(prefix) || ack.Done {
				return fmt.Errorf("%s for %s: %+v", what, id, ack)
			}
		}
		return nil
	}
	// Partial prefixes go to private workflows only: reports on shared
	// runs can trigger contention reschedules on their neighbours, which
	// would make the "generation preserved" comparison racy.
	for i, id := range ids {
		if i%3 == 0 && !shared[id] {
			prefixes[id] = drive.Replay(plans[id], 20, nil)
		}
	}
	if err := replayPrefixes("prefix ack"); err != nil {
		return nil, err
	}
	m, err := scrape(c)
	if err != nil {
		return nil, err
	}
	if m.LiveResident != int64(len(ids)) {
		return nil, fmt.Errorf("%d live resident before kill, want %d", m.LiveResident, len(ids))
	}
	gridBefore, err := c.Grid(ctx, "chaos")
	if err != nil {
		return nil, err
	}

	// Phase 2: SIGKILL mid-flight, restart on the same directory.
	logger.Printf("SIGKILL with %d live workflows (%d shared, %d mid-report)", len(ids), len(shared), len(prefixes))
	killed := time.Now()
	d.kill()
	if d, err = o.spawn(c, dir); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	downtime := time.Since(killed)

	// Phase 3: the recovery gates.
	var hz struct {
		Status  string `json:"status"`
		Version string `json:"version"`
		server.RecoveryStats
	}
	if err := c.GetJSON(ctx, "/v1/healthz", &hz); err != nil {
		return nil, err
	}
	if hz.Status != "ready" || hz.Workflows != uint64(len(ids)) {
		return nil, fmt.Errorf("healthz after restart: status %q, %s (want %d recovered)", hz.Status, hz.RecoveryStats, len(ids))
	}
	for _, id := range ids {
		got, err := plan(id)
		if err != nil {
			return nil, err
		}
		want := plans[id]
		if got.Generation != want.Generation || len(got.Assignments) != len(want.Assignments) ||
			math.Abs(got.Makespan-want.Makespan) > 1e-9 {
			return nil, fmt.Errorf("%s: plan diverged across restart (gen %d→%d, makespan %v→%v)",
				id, want.Generation, got.Generation, want.Makespan, got.Makespan)
		}
	}
	ga, err := c.Grid(ctx, "chaos")
	if err != nil {
		return nil, err
	}
	if ga.Reservations != gridBefore.Reservations || ga.Attached != gridBefore.Attached {
		return nil, fmt.Errorf("grid ledger not reconstructed: before %+v after %+v", gridBefore, ga)
	}
	if err := replayPrefixes("duplicate replay not acked idempotently"); err != nil {
		return nil, err
	}

	// Phase 4: drive everything to completion. The plan is re-fetched per
	// workflow: as shared-grid neighbours finish and free capacity,
	// survivors adopt contention reschedules, so the enacted plan can be
	// newer (and better) than the recovered one. The makespan check
	// compares against the plan actually replayed.
	enacted := make(map[string]*wire.Plan, len(ids))
	for _, id := range ids {
		if enacted[id], err = plan(id); err != nil {
			return nil, err
		}
		ack, err := c.Report(ctx, id, drive.Replay(enacted[id], math.Inf(1), prefixes[id]))
		if err != nil {
			return nil, err
		}
		if !ack.Done {
			return nil, fmt.Errorf("%s not done after full replay: %+v", id, ack)
		}
	}
	for _, id := range ids {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State != server.StateDone {
			return nil, fmt.Errorf("workflow %s ended %s: %s", id, st.State, st.Error)
		}
		if math.Abs(st.Makespan-enacted[id].Makespan) > 1e-9 {
			return nil, fmt.Errorf("%s: makespan %v, enacted plan promised %v", id, st.Makespan, enacted[id].Makespan)
		}
	}
	g, err := c.Grid(ctx, "chaos")
	if err != nil {
		return nil, err
	}
	if g.Reservations != 0 || g.Attached != 0 {
		return nil, fmt.Errorf("leaked shared-grid state after drain: %+v", g)
	}
	if m, err = scrape(c); err != nil {
		return nil, err
	}
	if m.Failed != 0 {
		return nil, fmt.Errorf("daemon reports %d failed workflows", m.Failed)
	}
	if m.ReportsDuplicate < uint64(len(prefixes)) {
		return nil, fmt.Errorf("reports_duplicate=%d, want >= %d", m.ReportsDuplicate, len(prefixes))
	}
	rep = &Report{
		Workflows:         len(ids),
		SharedWorkflows:   len(shared),
		PrefixedWorkflows: len(prefixes),
		RecoveryStats:     hz.RecoveryStats,
		DowntimeMs:        downtime.Seconds() * 1e3,
		DuplicatesAcked:   len(prefixes),
		TotalS:            time.Since(start).Seconds(),
		ServerMetrics:     m,
	}
	rep.Versions.Chaos, rep.Versions.Daemon = buildinfo.String(), hz.Version

	// Graceful exit: the recovered daemon must still drain cleanly.
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		return nil, err
	}
	<-d.exited
	if d.err != nil {
		return nil, fmt.Errorf("daemon drain after recovery: %v", d.err)
	}
	return rep, nil
}

// scrape fetches the daemon's /metrics document. Every call decodes into
// a fresh value: the by-reason, per-tenant and per-stage maps are
// omitempty on the wire, so decoding over an earlier scrape would keep
// its stale entries.
func scrape(c *drive.Client) (server.MetricsDoc, error) {
	var m server.MetricsDoc
	err := c.GetJSON(context.Background(), "/metrics", &m)
	return m, err
}
