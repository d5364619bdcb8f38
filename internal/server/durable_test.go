package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"aheft/internal/admission"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// The crash-recovery suite: a durable daemon is killed mid-flight
// (Server.Crash freezes the WAL stores exactly as a SIGKILL would leave
// the disk) and reopened on the same data directory, and the restarted
// daemon must resume every live workflow where it stood — plans with
// their generations, feedback progress, tenant histories, shared-grid
// ledgers — and ack duplicate report replays idempotently.

// openDurable opens a durable server over dir and mounts it on httptest.
// No cleanup is registered: crash/restart tests manage both ends.
func openDurable(t testing.TB, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DataDir = dir
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return srv, httptest.NewServer(srv.Handler())
}

type healthzDoc struct {
	Status             string  `json:"status"`
	Version            string  `json:"version"`
	Shards             int     `json:"shards"`
	Durable            bool    `json:"durable"`
	RecoveredWorkflows uint64  `json:"recovered_workflows"`
	RecoveryMs         float64 `json:"recovery_ms"`
	LoadMs             float64 `json:"load_ms"`
	FoldMs             float64 `json:"fold_ms"`
	RestoreMs          float64 `json:"restore_ms"`
	SnapshotMs         float64 `json:"snapshot_ms"`
	WALBytesReplayed   int64   `json:"wal_bytes_replayed"`
	WALRecordsReplayed int     `json:"wal_records_replayed"`
}

func getHealthz(t testing.TB, ts *httptest.Server) healthzDoc {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz: HTTP %d", resp.StatusCode)
	}
	var doc healthzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// remainingEvents returns the faithful full-execution report for plan
// minus the events already covered by the applied prefix.
func remainingEvents(plan *wire.Plan, prefix []wire.ReportEvent) []wire.ReportEvent {
	type key struct {
		kind string
		job  int
	}
	done := make(map[key]bool, len(prefix))
	for _, ev := range prefix {
		done[key{ev.Kind, ev.Job}] = true
	}
	var evs []wire.ReportEvent
	for _, a := range plan.Assignments {
		if !done[key{wire.ReportJobStarted, a.Job}] {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource,
			})
		}
		if !done[key{wire.ReportJobFinished, a.Job}] {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Resource: a.Resource, Duration: a.Finish - a.Start,
			})
		}
	}
	sortReportEvents(evs)
	return evs
}

func sortReportEvents(evs []wire.ReportEvent) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0; j-- {
			a, b := &evs[j-1], &evs[j]
			if a.Time < b.Time || (a.Time == b.Time && !(a.Kind == wire.ReportJobFinished && b.Kind == wire.ReportJobStarted)) {
				break
			}
			*a, *b = *b, *a
		}
	}
}

// TestKillRestartRecovery is the acceptance test for the durability
// layer: >100 live workflows (private across four tenants, plus two
// tenants sharing a grid), a subset with partial execution reported, a
// hard kill, a reopen on the same data directory, and then every
// workflow must be resident with its pre-crash plan and generation,
// duplicate report replays must be acked idempotently, every run must
// complete with a correct makespan, and the shared-grid ledger must
// drain to zero.
func TestKillRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	sc := workload.SampleScenario()
	cfg := Config{Shards: 4, WALSync: "off", SnapshotInterval: time.Hour}

	srvA, tsA := openDurable(t, dir, cfg)
	registerGrid(t, tsA, "shared", sc)

	const nPrivate = 100
	tenants := []string{"t0", "t1", "t2", "t3"}
	var ids []string
	for i := 0; i < nPrivate; i++ {
		body := encodeLive(t, sc, "aheft", tenants[i%len(tenants)], wire.Options{})
		sub, resp := submit(t, tsA, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, sub.ID)
	}
	var gridIDs []string
	for _, tenant := range []string{"alice", "bob", "alice", "bob"} {
		gridIDs = append(gridIDs, submitShared(t, tsA, "shared", tenant, sc))
	}
	all := append(append([]string(nil), ids...), gridIDs...)

	plansA := make(map[string]*wire.Plan, len(all))
	for _, id := range all {
		plansA[id] = waitPlan(t, tsA, id)
	}

	// Every 5th private workflow reports a partial faithful execution, so
	// recovery must restore mid-flight feedback state and tenant history,
	// not just initial plans.
	prefixes := make(map[string][]wire.ReportEvent)
	for i := 0; i < nPrivate; i += 5 {
		id := ids[i]
		prefix := replayPrefix(*plansA[id], 20)
		if len(prefix) == 0 {
			t.Fatalf("empty replay prefix for %s", id)
		}
		var ack wire.ReportAck
		if code, msg := postJSON(t, tsA, "/v1/workflows/"+id+"/report", encodeReport(t, prefix...), &ack); code != http.StatusOK {
			t.Fatalf("prefix report %s: HTTP %d (%s)", id, code, msg)
		}
		if ack.Applied != len(prefix) || ack.Done {
			t.Fatalf("prefix ack %s: %+v", id, ack)
		}
		prefixes[id] = prefix
	}
	gridBefore := gridStatus(t, tsA, "shared")
	if gridBefore.Reservations == 0 || gridBefore.Attached != len(gridIDs) {
		t.Fatalf("pre-crash grid status: %+v", gridBefore)
	}

	// Kill. The disk now holds whatever the WAL had at this instant.
	srvA.Crash()
	tsA.Close()

	srvB, tsB := openDurable(t, dir, cfg)
	defer func() {
		tsB.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := srvB.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	hz := getHealthz(t, tsB)
	if hz.Status != "ready" || !hz.Durable {
		t.Fatalf("healthz after recovery: %+v", hz)
	}
	if hz.RecoveredWorkflows != uint64(len(all)) {
		t.Fatalf("recovered_workflows = %d, want %d", hz.RecoveredWorkflows, len(all))
	}
	// The breakdown attributes the recovery: every workflow left at least
	// a submission, an admission and a state record to replay, and the
	// four phases account for (nearly) all of recovery_ms.
	if hz.WALRecordsReplayed < 3*len(all) || hz.WALBytesReplayed <= 0 {
		t.Fatalf("healthz replay volume: %+v", hz)
	}
	if parts := hz.LoadMs + hz.FoldMs + hz.RestoreMs + hz.SnapshotMs; hz.LoadMs <= 0 || hz.FoldMs <= 0 ||
		hz.RestoreMs <= 0 || hz.SnapshotMs <= 0 || parts > hz.RecoveryMs || parts < 0.8*hz.RecoveryMs {
		t.Fatalf("healthz recovery breakdown does not add up: %+v", hz)
	}
	doc := getMetrics(t, tsB)
	if doc.LiveResident != int64(len(all)) {
		t.Fatalf("live_resident after recovery = %d, want %d", doc.LiveResident, len(all))
	}
	if doc.HistoryCells == 0 {
		t.Fatal("tenant history did not survive the crash")
	}

	// Plans and generations must come back exactly as last handed out.
	for _, id := range all {
		got := waitPlan(t, tsB, id)
		want := plansA[id]
		if got.Generation != want.Generation {
			t.Fatalf("%s: generation %d after restart, want %d", id, got.Generation, want.Generation)
		}
		if !reflect.DeepEqual(got.Assignments, want.Assignments) {
			t.Fatalf("%s: assignments changed across restart", id)
		}
	}
	gridAfter := gridStatus(t, tsB, "shared")
	if gridAfter.Reservations != gridBefore.Reservations || gridAfter.Attached != gridBefore.Attached {
		t.Fatalf("grid ledger not reconstructed: before %+v after %+v", gridBefore, gridAfter)
	}

	// A duplicate replay of an already-applied batch (the enactor never
	// saw its ack) must be acked idempotently, not 400ed.
	dups := 0
	for id, prefix := range prefixes {
		var ack wire.ReportAck
		if code, msg := postJSON(t, tsB, "/v1/workflows/"+id+"/report", encodeReport(t, prefix...), &ack); code != http.StatusOK {
			t.Fatalf("duplicate report %s: HTTP %d (%s)", id, code, msg)
		}
		if ack.Applied != len(prefix) || ack.Done {
			t.Fatalf("duplicate ack %s: %+v", id, ack)
		}
		dups++
	}
	if got := getMetrics(t, tsB).ReportsDuplicate; got != uint64(dups) {
		t.Fatalf("reports_duplicate = %d, want %d", got, dups)
	}

	// Drive every workflow to completion against the recovered daemon.
	for _, id := range all {
		plan := waitPlan(t, tsB, id)
		events := remainingEvents(plan, prefixes[id])
		var ack wire.ReportAck
		if code, msg := postJSON(t, tsB, "/v1/workflows/"+id+"/report", encodeReport(t, events...), &ack); code != http.StatusOK {
			t.Fatalf("final report %s: HTTP %d (%s)", id, code, msg)
		}
		if !ack.Done {
			t.Fatalf("workflow %s not done after full replay: %+v", id, ack)
		}
	}
	for _, id := range all {
		st := waitDone(t, tsB, id)
		if st.State != StateDone {
			t.Fatalf("workflow %s: state %q error %q", id, st.State, st.Error)
		}
		if st.Makespan <= 0 {
			t.Fatalf("workflow %s: makespan %v", id, st.Makespan)
		}
	}

	// No workflow lost, no reservation leaked.
	final := gridStatus(t, tsB, "shared")
	if final.Reservations != 0 || final.Attached != 0 {
		t.Fatalf("grid did not drain: %+v", final)
	}
	if got := getMetrics(t, tsB).LiveResident; got != 0 {
		t.Fatalf("live_resident after drain = %d", got)
	}

	// The recovered event logs must have stayed dense across the restart:
	// pre-crash events replayed, post-restart events appended after them.
	id := ids[0]
	resp, err := tsB.Client().Get(tsB.URL + "/v1/workflows/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := 0
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev wire.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != want {
			t.Fatalf("event log gap across restart: seq %d, want %d", ev.Seq, want)
		}
		want++
	}
	if want == 0 {
		t.Fatal("no events streamed for recovered workflow")
	}
}

// TestPendingSubmissionsRequeuedAfterCrash crashes a daemon whose
// workers are wedged, leaving accepted-but-unstarted submissions only in
// the WAL; the restarted daemon must re-enqueue and finish them, and
// keep assigning fresh IDs after the recovered sequence.
func TestPendingSubmissionsRequeuedAfterCrash(t *testing.T) {
	dir := t.TempDir()
	sc := workload.SampleScenario()
	cfg := Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour}

	srvA, tsA := openDurable(t, dir, cfg)
	// Wedge the single worker until the crash: every accepted workflow
	// stays queued (or parked in the hook), so none reaches a terminal
	// record before the kill.
	srvA.execHook = func(*workflow) { <-srvA.runCtx.Done() }
	body := encodeScenario(t, sc, "aheft", wire.Options{TieWindow: 0.05})
	var ids []string
	for i := 0; i < 3; i++ {
		sub, resp := submit(t, tsA, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, sub.ID)
	}
	srvA.Crash()
	tsA.Close()

	srvB, tsB := openDurable(t, dir, cfg)
	defer func() {
		tsB.Close()
		srvB.Shutdown(context.Background())
	}()
	for _, id := range ids {
		st := waitDone(t, tsB, id)
		if st.State != StateDone || st.Makespan != 76 {
			t.Fatalf("recovered pending workflow %s: state %q makespan %v", id, st.State, st.Makespan)
		}
	}
	// The ID sequence continues past the recovered workflows.
	sub, resp := submit(t, tsB, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit: HTTP %d", resp.StatusCode)
	}
	if sub.ID != fmt.Sprintf("wf-%08d", len(ids)+1) {
		t.Fatalf("post-recovery ID %s, want wf-%08d", sub.ID, len(ids)+1)
	}
	if st := waitDone(t, tsB, sub.ID); st.State != StateDone {
		t.Fatalf("post-recovery workflow: %+v", st)
	}
}

// TestTerminalRecordsSurviveRestart: a clean shutdown snapshots, and the
// reopened daemon serves the finished workflows' statuses and event logs
// from the frozen records.
func TestTerminalRecordsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	sc := workload.SampleScenario()
	cfg := Config{Shards: 2, WALSync: "interval"}

	srvA, tsA := openDurable(t, dir, cfg)
	body := encodeScenario(t, sc, "aheft", wire.Options{TieWindow: 0.05})
	sub, resp := submit(t, tsA, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	stA := waitDone(t, tsA, sub.ID)
	tsA.Close()
	if err := srvA.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := openDurable(t, dir, cfg)
	defer func() {
		tsB.Close()
		srvB.Shutdown(context.Background())
	}()
	stB := getStatus(t, tsB, sub.ID)
	if stB.State != StateDone || stB.Makespan != stA.Makespan || stB.Events != stA.Events {
		t.Fatalf("terminal status diverged across restart:\n  before %+v\n  after  %+v", stA, stB)
	}
	if stB.Policy != stA.Policy || stB.Adoptions != stA.Adoptions {
		t.Fatalf("terminal status detail diverged:\n  before %+v\n  after  %+v", stA, stB)
	}
}

// TestRecoveryIsIdempotent: recovering, doing nothing, and restarting
// again must reproduce the same state — the post-recovery snapshot must
// be a faithful self-description.
func TestRecoveryIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	sc := workload.SampleScenario()
	cfg := Config{Shards: 2, WALSync: "off", SnapshotInterval: time.Hour}

	srvA, tsA := openDurable(t, dir, cfg)
	registerGrid(t, tsA, "g", sc)
	id := submitShared(t, tsA, "g", "tenant-a", sc)
	planA := waitPlan(t, tsA, id)
	srvA.Crash()
	tsA.Close()

	for round := 0; round < 2; round++ {
		srv, ts := openDurable(t, dir, cfg)
		hz := getHealthz(t, ts)
		if hz.RecoveredWorkflows != 1 {
			t.Fatalf("round %d: recovered_workflows = %d", round, hz.RecoveredWorkflows)
		}
		plan := waitPlan(t, ts, id)
		if plan.Generation != planA.Generation || !reflect.DeepEqual(plan.Assignments, planA.Assignments) {
			t.Fatalf("round %d: plan diverged", round)
		}
		if gs := gridStatus(t, ts, "g"); gs.Attached != 1 || gs.Reservations == 0 {
			t.Fatalf("round %d: grid status %+v", round, gs)
		}
		srv.Crash()
		ts.Close()
	}
}

// TestCrashBeforeFirstStateRecord stops the store at the one instant
// startLive is exposed — the workflow planned, its first state record not
// yet on disk — and checks the order that makes that crash harmless: the
// plan is not served yet (so no enactor can hold it), and the journal,
// which still lists the submission as pending, recovers to a workflow
// planned afresh. Served-before-journalled was TestRecoveryIsIdempotent's
// flake: a crash in that window recovered zero live workflows.
func TestCrashBeforeFirstStateRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour}
	srv, ts := openDurable(t, dir, cfg)
	sh := srv.shards[0]
	served := make(chan bool, 1)
	sh.wal.mu.Lock()
	sh.wal.onAppend = func(kind string) {
		if kind != wire.WALState {
			return
		}
		sh.wal.onAppend = nil
		sh.wal.store.Disable() // the crash: nothing after this reaches the disk
		for _, wf := range sh.live {
			wf.mu.Lock()
			served <- wf.plan != nil
			wf.mu.Unlock()
		}
	}
	sh.wal.mu.Unlock()

	var sub wire.Submitted
	if code, msg := postJSON(t, ts, "/v1/workflows", encodeLive(t, workload.SampleScenario(), "aheft", "acme", wire.Options{}), &sub); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d %s", code, msg)
	}
	if <-served {
		t.Fatal("the initial plan was served before its state record was journalled")
	}
	srv.Crash()
	ts.Close()

	srv, ts = openDurable(t, dir, cfg)
	defer ts.Close()
	defer srv.Crash()
	if hz := getHealthz(t, ts); hz.RecoveredWorkflows != 0 {
		t.Fatalf("recovered_workflows = %d, want 0: the crash preceded the first state record", hz.RecoveredWorkflows)
	}
	if plan := fetchPlan(t, ts, sub.ID); plan.Generation != 1 || plan.Trigger != "initial" || len(plan.Assignments) == 0 {
		t.Fatalf("re-planned pending submission: %+v", plan)
	}
}

// TestGateRecoveringThenReady covers the readiness satellite: the gate
// answers 503 "recovering" until the recovered handler is installed.
func TestGateRecoveringThenReady(t *testing.T) {
	g := NewGate()
	ts := httptest.NewServer(g)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var doc healthzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || doc.Status != "recovering" {
		t.Fatalf("gate before ready: HTTP %d %+v", resp.StatusCode, doc)
	}

	srv, _ := newTestServer(t, Config{Shards: 1})
	g.Ready(srv.Handler())
	resp, err = ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	doc = healthzDoc{}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || doc.Status != "ready" {
		t.Fatalf("gate after ready: HTTP %d %+v", resp.StatusCode, doc)
	}
}

// TestAdmissionQueueSurvivesCrashInFairOrder crashes a daemon whose
// single worker is wedged behind a mixed-tenant, mixed-class backlog.
// The restarted daemon must not only finish every journalled submission
// (the WALSubmission records guarantee that) but serve them in the
// weighted fair order their WALAdmission credentials imply — a
// flooding tenant's pre-crash backlog must not replay as FIFO and jump
// the victims it was queued behind. The expected order is computed by
// driving a fresh admission controller with the same sequence; the
// served order is read back from the retention queue, which lists
// workflows as they finished (one shard, analytic runs: execution is
// serial, so that is the order they were started in — the test insists on
// the one shard).
func TestAdmissionQueueSurvivesCrashInFairOrder(t *testing.T) {
	dir := t.TempDir()
	sc := workload.SampleScenario()
	cfg := Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour}

	srvA, tsA := openDurable(t, dir, cfg)
	srvA.execHook = func(*workflow) { <-srvA.runCtx.Done() }

	// A low-class flood, then two high-class victims and a weighted
	// normal bystander queued behind it.
	seq := []struct {
		tenant, class string
		weight        float64
	}{
		{"greedy", wire.ClassLow, 1}, {"greedy", wire.ClassLow, 1},
		{"greedy", wire.ClassLow, 1}, {"greedy", wire.ClassLow, 1},
		{"victim", wire.ClassHigh, 1}, {"victim", wire.ClassHigh, 1},
		{"bystander", wire.ClassNormal, 2},
	}
	var ids []string
	for i, q := range seq {
		data, err := wire.EncodeSubmission(&wire.Submission{
			Policy:  "aheft",
			Tenant:  q.tenant,
			Options: wire.Options{TieWindow: 0.05, Class: q.class, Weight: q.weight},
			Graph:   sc.Graph, Comp: sc.Table, Pool: sc.Pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		sub, resp := submit(t, tsA, data)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, sub.ID)
	}
	srvA.Crash()
	tsA.Close()

	// Reference run: the same sequence through a fresh controller, fully
	// enqueued before the first dequeue — exactly the shape recovery
	// produces (requeue happens before the shard worker starts).
	ref := admission.New(admission.Config{})
	for i, q := range seq {
		if err := ref.Enqueue(admission.Item{ID: ids[i], Tenant: q.tenant, Class: q.class, Weight: q.weight}); err != nil {
			t.Fatalf("reference enqueue %d: %v", i, err)
		}
	}
	var want []string
	for {
		d, ok := ref.TryDequeue()
		if !ok {
			break
		}
		want = append(want, d.Item.ID)
	}
	if len(want) != len(ids) {
		t.Fatalf("reference drain: %d of %d", len(want), len(ids))
	}

	srvB, tsB := openDurable(t, dir, cfg)
	defer func() {
		tsB.Close()
		srvB.Shutdown(context.Background())
	}()
	for _, id := range ids {
		if st := waitDone(t, tsB, id); st.State != StateDone || st.Makespan != 76 {
			t.Fatalf("recovered workflow %s: state %q makespan %v", id, st.State, st.Makespan)
		}
	}
	// One shard runs its workflows one after another, so the order they
	// finished in — the retention queue's — is the order they were served.
	if len(srvB.shards) != 1 {
		t.Fatalf("%d shards: finish order says nothing about served order", len(srvB.shards))
	}
	srvB.mu.RLock()
	got := append([]string(nil), srvB.retained...)
	srvB.mu.RUnlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served order after crash:\n got %v\nwant %v", got, want)
	}
}
