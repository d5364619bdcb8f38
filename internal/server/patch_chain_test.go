package server

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
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aheft/internal/drive"
	"aheft/internal/durable"
	"aheft/internal/history"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// The patch-chain suite: state records are patches against the
// workflow's previous record, so recovery is only as good as the fold.
// A recorded closed-loop life (internal/drive against a scratch daemon:
// noise 0.2, churn 0.3) is replayed report by report into durable
// daemons that are killed at every point of it.

// life is one workflow's recorded inputs: its submission and every
// report the enactor posted, in order.
type life struct {
	sub     []byte
	reports [][]byte
}

// lifeTap records the POST bodies passing through to a daemon.
type lifeTap struct {
	h  http.Handler
	mu sync.Mutex
	life
}

func (l *lifeTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		l.mu.Lock()
		switch {
		case r.URL.Path == "/v1/workflows":
			l.sub = body
		case strings.HasSuffix(r.URL.Path, "/report"):
			l.reports = append(l.reports, body)
		}
		l.mu.Unlock()
	}
	l.h.ServeHTTP(w, r)
}

// blast24Life drives the benchmark's 50-job BLAST shape through a
// scratch daemon and returns what the enactor sent. A daemon is
// deterministic in its inputs, so replaying the life into a fresh daemon
// with a fresh tenant history reproduces every ack.
func blast24Life(t testing.TB) life {
	t.Helper()
	srv := New(Config{Shards: 1})
	tap := &lifeTap{h: srv.Handler()}
	ts := httptest.NewServer(tap)
	defer func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	}()
	sc, err := workload.BlastScenario(
		workload.AppParams{Parallelism: 24, CCR: 1, Beta: 0.5},
		workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4},
		rng.New(0xB1A57))
	if err != nil {
		t.Fatal(err)
	}
	out, err := drive.Run(context.Background(), drive.Config{
		Client: drive.Client{Base: ts.URL, HTTP: ts.Client()}, Noise: 0.2, Churn: 0.3, Seed: 7,
	}, []drive.Tenant{{
		History: "chain", Scenario: sc, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if row := out.Tenants[0]; row.Reschedules == 0 || len(tap.reports) < 20 {
		t.Fatalf("recorded life is too dull: %d reports, %d reschedules", len(tap.reports), row.Reschedules)
	}
	return tap.life
}

// observed is what recovery must bring back of a live workflow.
type observed struct {
	Generation int
	PlanHash   uint64
	Trigger    string
	Reports    int
	Events     []wire.Event
	Cells      []history.Cell
	Tracker    string // the tracker's exported state, as JSON
}

// observe reads the workflow's recoverable state. The caller must have
// the daemon quiescent (no request in flight): the last ack orders the
// shard's writes before these reads.
func observe(t testing.TB, srv *Server, ts *httptest.Server, id, tenant string) observed {
	t.Helper()
	plan := fetchPlan(t, ts, id)
	st := getStatus(t, ts, id)
	wf, ok := srv.lookup(id)
	if !ok {
		t.Fatalf("workflow %s not registered", id)
	}
	wf.mu.Lock()
	events := wf.eventsFrom(0)
	wf.mu.Unlock()
	tracker, err := json.Marshal(wf.tracker.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return observed{
		Tracker:    string(tracker),
		Generation: plan.Generation,
		PlanHash:   wire.HashPlan(plan.Assignments),
		Trigger:    plan.Trigger,
		Reports:    st.Reports,
		Events:     events,
		Cells:      srv.shards[wf.shard].historyFor(tenant).Export(),
	}
}

// scrubbed returns o with the decisions' process-local telemetry
// (timings) zeroed: two daemons that made the same decision
// agree on everything else.
func (o observed) scrubbed() observed {
	events := make([]wire.Event, len(o.Events))
	for i, ev := range o.Events {
		if ev.Decision != nil {
			d := *ev.Decision
			d.ElapsedMs, d.RankMs, d.PlaceMs = 0, 0, 0
			ev.Decision = &d
		}
		events[i] = ev
	}
	o.Events = events
	return o
}

func (o observed) diff(want observed) string {
	switch {
	case o.Generation != want.Generation || o.PlanHash != want.PlanHash || o.Trigger != want.Trigger:
		return fmt.Sprintf("plan: generation %d hash %x trigger %q, want generation %d hash %x trigger %q",
			o.Generation, o.PlanHash, o.Trigger, want.Generation, want.PlanHash, want.Trigger)
	case o.Reports != want.Reports:
		return fmt.Sprintf("reports %d, want %d", o.Reports, want.Reports)
	case !reflect.DeepEqual(o.Events, want.Events):
		return fmt.Sprintf("event log differs (%d events, want %d)", len(o.Events), len(want.Events))
	case !reflect.DeepEqual(o.Cells, want.Cells):
		return fmt.Sprintf("tenant history differs (%d cells, want %d)", len(o.Cells), len(want.Cells))
	case o.Tracker != want.Tracker:
		return fmt.Sprintf("tracker state differs:\n got %s\nwant %s", o.Tracker, want.Tracker)
	}
	return ""
}

// copyDir copies a data directory as a SIGKILL would leave it: appends
// are completed write(2)s, so the files' current bytes are the crash
// state.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
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
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// submitLife submits the life's workflow to a fresh durable daemon and
// waits for its plan and for the plan's state record: the plan is
// published before it is journalled, and a copy of the data directory
// taken in between holds a pending submission, not a live workflow.
func submitLife(t testing.TB, ts *httptest.Server, l life) string {
	t.Helper()
	sub, resp := submit(t, ts, l.sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	fetchPlan(t, ts, sub.ID)
	// Submission, admission, state.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		m := getMetrics(t, ts)
		if m.WALAppends >= 3 {
			return sub.ID
		}
		if time.Now().After(deadline) {
			t.Fatalf("the plan's state record was never journalled (%d appends)", m.WALAppends)
		}
	}
}

func postReport(t testing.TB, ts *httptest.Server, id string, body []byte) {
	t.Helper()
	var ack wire.ReportAck
	if code, msg := postJSON(t, ts, "/v1/workflows/"+id+"/report", body, &ack); code != http.StatusOK {
		t.Fatalf("report: HTTP %d (%s)", code, msg)
	}
}

// TestCrashAtEveryReport kills a daemon after k reports for every k of
// a workflow's life and requires the reopened daemon to hold exactly
// what the never-crashed one holds: plan generation and hash, report
// count, event log, tenant history. Each recovered daemon then takes
// the next report — journalled as a patch against the snapshot recovery
// wrote — and is killed and reopened once more. With snapshotEvery set
// the never-crashed daemon also snapshots mid-life, so chains restart
// from snapshot entries.
func TestCrashAtEveryReport(t *testing.T) {
	l := blast24Life(t)
	for _, snapshotEvery := range []int{0, 7} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", snapshotEvery), func(t *testing.T) {
			cfg := Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour}
			dir := t.TempDir()
			srv, ts := openDurable(t, dir, cfg)
			defer func() {
				ts.Close()
				srv.Crash()
			}()
			id := submitLife(t, ts, l)

			// reopen recovers a copy of dir and returns the daemon on it.
			reopen := func(src string) (*Server, *httptest.Server, string) {
				cp := t.TempDir()
				copyDir(t, src, cp)
				s, h := openDurable(t, cp, cfg)
				return s, h, cp
			}
			// The last report completes the run; a terminal workflow has
			// no live state to compare.
			var ahead *observed // a recovered daemon's state one report on
			for k := 0; k < len(l.reports); k++ {
				if k > 0 {
					postReport(t, ts, id, l.reports[k-1])
					if snapshotEvery > 0 && k%snapshotEvery == 0 {
						srv.shards[0].snapshot()
					}
				}
				want := observe(t, srv, ts, id, "chain")
				if ahead != nil {
					// The recovered daemon made report k's decisions itself.
					if d := ahead.scrubbed().diff(want.scrubbed()); d != "" {
						t.Fatalf("k=%d: recovered twice, one report between: %s", k, d)
					}
				}

				rec, recTS, recDir := reopen(dir)
				if n := rec.Recovery().Workflows; n != 1 {
					t.Fatalf("k=%d: recovered %d workflows", k, n)
				}
				if d := observe(t, rec, recTS, id, "chain").diff(want); d != "" {
					t.Fatalf("k=%d: %s", k, d)
				}
				ahead = nil
				if k+1 < len(l.reports) {
					postReport(t, recTS, id, l.reports[k])
					recTS.Close()
					rec.Crash()
					again, againTS, _ := reopen(recDir)
					o := observe(t, again, againTS, id, "chain")
					ahead = &o
					againTS.Close()
					again.Crash()
				} else {
					recTS.Close()
					rec.Crash()
				}
			}
		})
	}
}

// scrubbedStateBytes returns the payload size of every state record in
// the shard log with the decision timings — the only bytes of a record
// that differ between two runs of the same inputs — zeroed.
func scrubbedStateBytes(t testing.TB, shardDir string) (sizes []int, whole []bool) {
	t.Helper()
	rec, err := durable.Load(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rec.Records {
		if r.Kind != wire.WALState {
			continue
		}
		var p walState
		if err := json.Unmarshal(r.Data, &p); err != nil {
			t.Fatal(err)
		}
		for _, ev := range p.Events {
			if ev.Decision != nil {
				ev.Decision.ElapsedMs, ev.Decision.RankMs, ev.Decision.PlaceMs = 0, 0, 0
			}
		}
		data, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(data))
		whole = append(whole, p.State != nil)
	}
	return sizes, whole
}

// TestStateRecordBytes is the byte guard: over a 50-job BLAST life the
// mean state record stays under 4 KB and records do not grow with the
// workflow's age — the last ten patch records average at most twice the
// first ten. The sizes (timings scrubbed) repeat exactly run to run.
func TestStateRecordBytes(t *testing.T) {
	l := blast24Life(t)
	run := func() ([]int, []bool) {
		dir := t.TempDir()
		srv, ts := openDurable(t, dir, Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour})
		id := submitLife(t, ts, l)
		for _, body := range l.reports {
			postReport(t, ts, id, body)
		}
		ts.Close()
		srv.Crash()
		return scrubbedStateBytes(t, filepath.Join(dir, "shard-0"))
	}
	sizes, whole := run()
	if again, _ := run(); !reflect.DeepEqual(sizes, again) {
		t.Fatalf("state record sizes do not repeat:\n%v\n%v", sizes, again)
	}
	if len(sizes) < len(l.reports)+1 {
		t.Fatalf("%d state records for %d reports", len(sizes), len(l.reports))
	}
	total := 0
	var patches []int
	for i, n := range sizes {
		total += n
		if whole[i] != (i == 0) {
			t.Fatalf("record %d: whole=%v; only the first record of a chain is a whole state", i, whole[i])
		}
		if !whole[i] {
			patches = append(patches, n)
		}
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	first, last := mean(patches[:10]), mean(patches[len(patches)-10:])
	t.Logf("%d state records, mean %.0f B (first whole state %d B); patch records: first ten %.0f B, last ten %.0f B",
		len(sizes), float64(total)/float64(len(sizes)), sizes[0], first, last)
	if m := float64(total) / float64(len(sizes)); m > 4096 {
		t.Errorf("mean state record %.0f B, want <= 4096", m)
	}
	if last > 2*first {
		t.Errorf("patch records grow with the workflow's age: last ten %.0f B vs first ten %.0f B", last, first)
	}
}

// rewriteLog copies a shard's log record by record into a fresh data
// directory, letting edit alter or drop (return nil) each payload. The
// copies are framed and checksummed anew, so an edited payload sits in a
// CRC-valid frame.
func rewriteLog(t testing.TB, srcShard, dstData string, edit func(i int, r *wire.WALRecord) json.RawMessage) {
	t.Helper()
	rec, err := durable.Load(srcShard)
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := durable.Open(filepath.Join(dstData, "shard-0"), durable.SyncOff, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i, r := range rec.Records {
		if data := edit(i, r); data != nil {
			if _, err := store.Append(r.Kind, data); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestUnusableRecordsAreLoud hand-corrupts one payload of a crashed
// daemon's log (inside a CRC-valid frame) and requires recovery to say
// so: the record is counted in wal_records_skipped, and a workflow whose
// state chain or terminal record lost a link comes back failed — never
// live on an older plan.
func TestUnusableRecordsAreLoud(t *testing.T) {
	l := blast24Life(t)
	cfg := Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour}
	// The source log: one workflow, twelve reports in, killed; and the
	// same workflow run to its terminal record.
	logOf := func(reports [][]byte) (shardDir, id string) {
		dir := t.TempDir()
		srv, ts := openDurable(t, dir, cfg)
		id = submitLife(t, ts, l)
		for _, body := range reports {
			postReport(t, ts, id, body)
		}
		ts.Close()
		srv.Crash()
		return filepath.Join(dir, "shard-0"), id
	}
	midDir, id := logOf(l.reports[:12])
	doneDir, _ := logOf(l.reports)

	// nth returns an edit that replaces the n-th record of the kind
	// (negative n counts from the end) with what corrupt makes of it.
	nth := func(src, kind string, n int, corrupt func(json.RawMessage) json.RawMessage) func(int, *wire.WALRecord) json.RawMessage {
		rec, err := durable.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		var idx []int
		for i, r := range rec.Records {
			if r.Kind == kind {
				idx = append(idx, i)
			}
		}
		if n < 0 {
			n += len(idx)
		}
		target := idx[n]
		return func(i int, r *wire.WALRecord) json.RawMessage {
			if i == target {
				return corrupt(r.Data)
			}
			return r.Data
		}
	}
	// edited decodes the payload as an object, lets f rewrite it, and
	// encodes it again: still valid JSON, no longer the record's schema.
	edited := func(f func(m map[string]json.RawMessage)) func(json.RawMessage) json.RawMessage {
		return func(data json.RawMessage) json.RawMessage {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			f(m)
			out, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	// mistype turns the named field into an array, which no field of any
	// record schema accepts.
	mistype := func(field string) func(json.RawMessage) json.RawMessage {
		return edited(func(m map[string]json.RawMessage) {
			if _, ok := m[field]; !ok {
				t.Fatalf("payload has no %q to corrupt", field)
			}
			m[field] = json.RawMessage(`[1]`)
		})
	}
	// misfit keeps the patch well-formed but aims it at a job the
	// workflow does not have.
	misfit := edited(func(m map[string]json.RawMessage) {
		var patch map[string]json.RawMessage
		if err := json.Unmarshal(m["patch"], &patch); err != nil {
			t.Fatal(err)
		}
		patch["jobs"] = json.RawMessage(`[{"job":4096}]`)
		m["patch"], _ = json.Marshal(patch)
	})
	drop := func(json.RawMessage) json.RawMessage { return nil }
	keep := func(_ int, r *wire.WALRecord) json.RawMessage { return r.Data }

	cases := []struct {
		name    string
		src     string
		edit    func(int, *wire.WALRecord) json.RawMessage
		skipped uint64
		state   string // workflow state after recovery
	}{
		{"intact", midDir, keep, 0, StateRunning},
		{"patch mid-chain does not decode", midDir, nth(midDir, wire.WALState, 5, mistype("patch")), 1, StateFailed},
		{"last patch does not decode", midDir, nth(midDir, wire.WALState, -1, mistype("patch")), 1, StateFailed},
		{"whole state does not decode", midDir, nth(midDir, wire.WALState, 0, mistype("state")), 1, StateFailed},
		{"unattributable patch leaves a rev gap", midDir, nth(midDir, wire.WALState, 5, mistype("id")), 1, StateFailed},
		{"patch missing from the log", midDir, nth(midDir, wire.WALState, 5, drop), 0, StateFailed},
		{"patch does not fit its base", midDir, nth(midDir, wire.WALState, 5, misfit), 0, StateFailed},
		{"terminal does not decode", doneDir, nth(doneDir, wire.WALTerminal, 0, mistype("status")), 1, StateFailed},
		{"admission does not decode", midDir, nth(midDir, wire.WALAdmission, 0, mistype("tenant")), 1, StateRunning},
		{"unknown kind", midDir, func(_ int, r *wire.WALRecord) json.RawMessage {
			if r.Kind == wire.WALAdmission {
				r.Kind = "from-the-future"
			}
			return r.Data
		}, 1, StateRunning},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := t.TempDir()
			rewriteLog(t, tc.src, data, tc.edit)
			srv, ts := openDurable(t, data, cfg)
			defer func() {
				ts.Close()
				srv.Crash()
			}()
			if got := getMetrics(t, ts).WALRecordsSkipped; got != tc.skipped {
				t.Errorf("wal_records_skipped = %d, want %d", got, tc.skipped)
			}
			st := getStatus(t, ts, id)
			if st.State != tc.state {
				t.Fatalf("workflow state %q (error %q), want %q", st.State, st.Error, tc.state)
			}
			if tc.state == StateFailed && !strings.Contains(st.Error, "lost in recovery") {
				t.Errorf("failed workflow's error %q does not say it was lost in recovery", st.Error)
			}
		})
	}
}

// TestRecoverFullStateLog recovers a data directory written by the
// commit before state records became patches (testdata/wal-full-states:
// every state record a whole TrackerState with the whole event log, two
// shards, one torn tail) and requires the answers that daemon recorded
// in expect.json before it was killed: a workflow killed half-way
// through its reports and one just planned come back live — plan, event
// log, tenant history, tracker state — and a finished one stays done.
// That daemon also had an incremental reschedule path: its journalled
// decisions carry the retired path and fallback fields, which recovery
// must skip, not reject.
func TestRecoverFullStateLog(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "wal-full-states"), dir)
	for _, shard := range []string{"shard-0", "shard-1"} {
		wal, err := os.ReadFile(filepath.Join(dir, shard, "wal-00000000000000000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(wal, []byte(`"path":"full"`)) || !bytes.Contains(wal, []byte(`"fallback":"`)) {
			t.Fatalf("%s: the fixture's decisions no longer carry the retired fields", shard)
		}
	}
	var want struct {
		Live     map[string]observed
		Terminal map[string]wire.Status
	}
	data, err := os.ReadFile(filepath.Join(dir, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	srv, ts := openDurable(t, dir, Config{Shards: 2, WALSync: "off", SnapshotInterval: time.Hour})
	defer func() {
		ts.Close()
		srv.Crash()
	}()
	if rs := srv.Recovery(); rs.Workflows != uint64(len(want.Live)) || rs.WALRecords == 0 {
		t.Fatalf("recovery: %+v, want %d live workflows", rs, len(want.Live))
	}
	if n := getMetrics(t, ts).WALRecordsSkipped; n != 0 {
		t.Fatalf("wal_records_skipped = %d on a well-formed log", n)
	}
	for id, w := range want.Live {
		if d := observe(t, srv, ts, id, "legacy").diff(w); d != "" {
			t.Errorf("%s: %s", id, d)
		}
	}
	for id, w := range want.Terminal {
		st := getStatus(t, ts, id)
		if st.State != w.State || st.Makespan != w.Makespan || st.Generation != w.Generation || st.Events != w.Events {
			t.Errorf("%s: terminal status %+v, want %+v", id, st, w)
		}
	}
}
