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
	"regexp"
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
// waits for its plan and for both its records to be counted: startLive
// journals the plan's state before it publishes the plan, so a copy of
// the data directory taken after this holds a live workflow, not a
// pending submission.
func submitLife(t testing.TB, ts *httptest.Server, l life) string {
	t.Helper()
	sub, resp := submit(t, ts, l.sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	fetchPlan(t, ts, sub.ID)
	// Submission, state.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		m := getMetrics(t, ts)
		if m.WALAppends >= 2 {
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
// count, event log (the journal keeps no decision telemetry), tenant
// history. Each recovered daemon then takes the next report — journalled
// as a whole state, recovery having written no snapshot to patch against
// — and is killed and reopened once more. With snapshotEvery set
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
				if d := observe(t, rec, recTS, id, "chain").scrubbed().diff(want.scrubbed()); d != "" {
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
			if _, err := store.Append(r.Kind, wire.RawDoc(data)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestUnusableRecordsAreLoud hand-corrupts one payload of a crashed
// daemon's log (inside a CRC-valid frame) and requires recovery to say
// so: the record is counted in wal_records_skipped, and a workflow whose
// state chain or terminal record lost a link comes back failed — never
// live on an older plan — and comes back the same from a second start,
// which counts nothing: recovery snapshots a skipped record away, and
// journals a failure that skipped none, with no snapshot between. A
// payload that is not JSON breaks its envelope: that is a torn tail,
// which ends replay and is not counted.
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
	// oldDir is midDir as a daemon that still journalled admission records
	// would have left it: one follows the submission.
	oldDir := filepath.Join(t.TempDir(), "shard-0")
	mid, err := durable.Load(midDir)
	if err != nil {
		t.Fatal(err)
	}
	old, _, err := durable.Open(oldDir, durable.SyncOff, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mid.Records {
		if _, err := old.Append(r.Kind, wire.RawDoc(r.Data)); err != nil {
			t.Fatal(err)
		}
		if r.Kind == wire.WALSubmission {
			if _, err := old.Append(wire.WALAdmission, wire.RawDoc(`{"id":"`+id+`"}`)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

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
		{"payload is not JSON", midDir, nth(midDir, wire.WALState, 5, func(json.RawMessage) json.RawMessage {
			return json.RawMessage("not json")
		}), 0, StateRunning},
		{"unknown kind", oldDir, func(_ int, r *wire.WALRecord) json.RawMessage {
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
			st := func(skipped uint64) wire.Status {
				srv, ts := openDurable(t, data, cfg)
				defer func() {
					ts.Close()
					srv.Crash()
				}()
				if got := getMetrics(t, ts).WALRecordsSkipped; got != skipped {
					t.Errorf("wal_records_skipped = %d, want %d", got, skipped)
				}
				return getStatus(t, ts, id)
			}
			first := st(tc.skipped)
			if first.State != tc.state {
				t.Fatalf("workflow state %q (error %q), want %q", first.State, first.Error, tc.state)
			}
			if tc.state == StateFailed && !strings.Contains(first.Error, "lost in recovery") {
				t.Errorf("failed workflow's error %q does not say it was lost in recovery", first.Error)
			}
			// A skipped record is snapshotted away, so it is counted once;
			// a failure with nothing skipped is journalled, not snapshotted.
			snaps, _ := filepath.Glob(filepath.Join(data, "shard-0", "snap-*"))
			if (len(snaps) != 0) != (tc.skipped != 0) {
				t.Fatalf("recovery that skipped %d records wrote %v", tc.skipped, snaps)
			}
			if tc.state == StateFailed && tc.skipped == 0 {
				rec, err := durable.Load(filepath.Join(data, "shard-0"))
				if err != nil {
					t.Fatal(err)
				}
				if last := rec.Records[len(rec.Records)-1]; last.Kind != wire.WALTerminal {
					t.Fatalf("recovery did not journal the failure: the log ends in a %s record", last.Kind)
				}
			}
			again := st(0)
			again.QueueMs = first.QueueMs // wall time, not journalled state
			if !reflect.DeepEqual(again, first) {
				t.Fatalf("status after a second start:\n got %+v\nwant %+v", again, first)
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
// must skip, not reject. Its tracker states also held a copy of the
// decisions and an adoption count, which trackers no longer keep: the
// decisions come back in the event log alone, so the expected tracker
// state is compared without those two keys.
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
	retired := regexp.MustCompile(`,"decisions":\[[^\]]*\]|,"adoptions":\d+`)
	for id, w := range want.Live {
		w.Tracker = retired.ReplaceAllString(w.Tracker, "")
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

// TestRecoverFastPathLog recovers a data directory written by the last
// daemon that gave a deep backlog's admissions a greedy initial plan
// (testdata/wal-fast-path: one shard, every admission on that path). Its
// state records carry the retired fast_path and upgraded keys;
// wf-00000001 adopted a replan under the retired upgrade trigger and then
// took a report; the log ends, as a crash would leave it, right after
// wf-00000002's first state record, so its upgrade is still owed.
// Recovery skips the retired keys, keeps the upgrade decision event byte
// for byte, and brings both workflows back live. The owed workflow keeps
// its greedy plan until its next evaluation and runs to done on it; the
// upgraded one runs to done with the journalled decision, retired trigger
// and all, first in its status, byte for byte: nothing parses it.
func TestRecoverFastPathLog(t *testing.T) {
	const upgraded, owed = "wf-00000001", "wf-00000002"
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "wal-fast-path"), dir)
	fixture, err := durable.Load(filepath.Join(dir, "shard-0"))
	if err != nil || fixture.TornTail {
		t.Fatalf("read fixture: %+v, err %v", fixture, err)
	}
	var journalled []byte // the upgrade decision event as that daemon wrote it
	retired := map[string]bool{}
	for _, r := range fixture.Records {
		for _, key := range []string{`"fast_path":true`, `"upgraded":true`} {
			retired[key] = retired[key] || bytes.Contains(r.Data, []byte(key))
		}
		var doc struct {
			Events []json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal(r.Data, &doc); err != nil {
			t.Fatal(err)
		}
		for _, ev := range doc.Events {
			if bytes.Contains(ev, []byte(`"kind":"decision"`)) && bytes.Contains(ev, []byte(`"trigger":"upgrade"`)) {
				journalled = ev
			}
		}
	}
	if journalled == nil || len(retired) != 2 || !retired[`"fast_path":true`] || !retired[`"upgraded":true`] {
		t.Fatalf("the fixture no longer holds the retired keys %v or an upgrade decision", retired)
	}

	srv, ts := openDurable(t, dir, Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour})
	defer func() {
		ts.Close()
		srv.Crash()
	}()
	if rs := srv.Recovery(); rs.Workflows != 2 {
		t.Fatalf("recovery: %+v, want 2 live workflows", rs)
	}
	if n := getMetrics(t, ts).WALRecordsSkipped; n != 0 {
		t.Fatalf("wal_records_skipped = %d on a well-formed log", n)
	}
	wf, _ := srv.lookup(upgraded)
	wf.mu.Lock()
	events := wf.eventsFrom(0)
	wf.mu.Unlock()
	var recovered []byte
	for _, ev := range events {
		if ev.Kind == "decision" && ev.Trigger == "upgrade" {
			if recovered, err = json.Marshal(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(recovered, journalled) {
		t.Fatalf("upgrade decision event after recovery:\n got %s\nwant %s", recovered, journalled)
	}

	plan := fetchPlan(t, ts, owed)
	if plan.Generation != 1 || plan.Trigger != "initial" || plan.Makespan != 88 {
		t.Fatalf("owed workflow's plan: generation %d trigger %q makespan %g, want its greedy initial plan (88)",
			plan.Generation, plan.Trigger, plan.Makespan)
	}
	postReport(t, ts, owed, encodeReport(t, remainingEvents(&plan, nil)...))
	if st := waitDone(t, ts, owed); st.State != StateDone || st.Makespan != 88 {
		t.Fatalf("owed workflow: %+v", st)
	}

	plan = fetchPlan(t, ts, upgraded)
	postReport(t, ts, upgraded, encodeReport(t, remainingEvents(&plan, replayPrefix(plan, 10))...))
	st := waitDone(t, ts, upgraded)
	if st.State != StateDone || len(st.Decisions) == 0 {
		t.Fatalf("upgraded workflow: %+v", st)
	}
	var ev struct{ Decision json.RawMessage }
	if err := json.Unmarshal(journalled, &ev); err != nil {
		t.Fatal(err)
	}
	if listed, err := json.Marshal(st.Decisions[0]); err != nil || !bytes.Equal(listed, ev.Decision) {
		t.Fatalf("upgraded workflow's status lists first %s, want the journalled %s", listed, ev.Decision)
	}
	if m := getMetrics(t, ts); m.Failed != 0 || m.Completed != 2 {
		t.Fatalf("completed %d, failed %d", m.Completed, m.Failed)
	}
}

// TestChainContinuesAfterRecovery runs crash → recover → two reports →
// crash → recover and requires what an uninterrupted run holds after the
// same reports: live tracker state, plan generation and hash, event log,
// tenant history. Recovery writes no snapshot here, so the chain goes on:
// both records after it are patches, each one rev on. It is run
// twice: where the first report after recovery adopts a new plan, and
// where it does not.
func TestChainContinuesAfterRecovery(t *testing.T) {
	l := blast24Life(t)
	cfg := Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour}
	// Find a report that adopts a new plan and one that does not.
	dir := t.TempDir()
	srv, ts := openDurable(t, dir, cfg)
	id := submitLife(t, ts, l)
	adopts, plain := -1, -1
	for k := 0; k+2 < len(l.reports); k++ {
		gen := fetchPlan(t, ts, id).Generation
		postReport(t, ts, id, l.reports[k])
		switch adopted := fetchPlan(t, ts, id).Generation > gen; {
		case adopted && adopts < 0 && k > 0:
			adopts = k
		case !adopted && plain < 0 && k > 0:
			plain = k
		}
	}
	ts.Close()
	srv.Crash()
	if adopts < 0 || plain < 0 {
		t.Fatalf("the life has no report that adopts (%d) or none that does not (%d)", adopts, plain)
	}

	for _, k := range []int{adopts, plain} {
		t.Run(fmt.Sprintf("crash before report %d", k), func(t *testing.T) {
			// The uninterrupted run.
			srv, ts := openDurable(t, t.TempDir(), cfg)
			submitLife(t, ts, l)
			for _, body := range l.reports[:k+2] {
				postReport(t, ts, id, body)
			}
			want := observe(t, srv, ts, id, "chain")
			ts.Close()
			srv.Crash()

			dir := t.TempDir()
			srv, ts = openDurable(t, dir, cfg)
			submitLife(t, ts, l)
			for _, body := range l.reports[:k] {
				postReport(t, ts, id, body)
			}
			ts.Close()
			srv.Crash()
			srv, ts = openDurable(t, dir, cfg)
			for _, body := range l.reports[k : k+2] {
				postReport(t, ts, id, body)
			}
			ts.Close()
			srv.Crash()

			rec, err := durable.Load(filepath.Join(dir, "shard-0"))
			if err != nil {
				t.Fatal(err)
			}
			var states []walState
			for _, r := range rec.Records {
				if r.Kind == wire.WALState {
					var p walState
					if err := json.Unmarshal(r.Data, &p); err != nil {
						t.Fatal(err)
					}
					states = append(states, p)
				}
			}
			if n := len(states); n != k+3 || states[n-2].Patch == nil || states[n-1].Patch == nil ||
				states[n-2].Rev != states[n-3].Rev+1 || states[n-1].Rev != states[n-2].Rev+1 {
				t.Fatalf("%d state records; want %d, the last two patches that go on from the recovered rev", n, k+3)
			}

			srv, ts = openDurable(t, dir, cfg)
			defer func() {
				ts.Close()
				srv.Crash()
			}()
			if d := observe(t, srv, ts, id, "chain").scrubbed().diff(want.scrubbed()); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// TestJournalKeepsNoDecisionTelemetry drives a live workflow past two
// adoptions in a durable daemon: no state record and no snapshot holds a
// decision's wall-clock telemetry, and two runs of the same inputs write
// byte-identical snapshots, with nothing masked.
func TestJournalKeepsNoDecisionTelemetry(t *testing.T) {
	l := blast24Life(t)
	telemetry := func(what string, doc []byte) {
		for _, key := range []string{`"elapsed_ms"`, `"rank_ms"`, `"place_ms"`} {
			if bytes.Contains(doc, []byte(key)) {
				t.Errorf("%s holds %s", what, key)
			}
		}
	}
	run := func() []byte {
		dir := t.TempDir()
		srv, ts := openDurable(t, dir, Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour})
		defer func() {
			ts.Close()
			srv.Crash()
		}()
		id := submitLife(t, ts, l)
		for _, body := range l.reports[:len(l.reports)-1] {
			postReport(t, ts, id, body)
		}
		if gen := fetchPlan(t, ts, id).Generation; gen < 3 {
			t.Fatalf("plan generation %d, want two adoptions past the first plan", gen)
		}
		for i, doc := range stateRecords(t, filepath.Join(dir, "shard-0")) {
			telemetry(fmt.Sprintf("state record %d", i), doc)
		}
		srv.shards[0].snapshot()
		rec, err := durable.Load(filepath.Join(dir, "shard-0"))
		if err != nil || rec.Snapshot == nil {
			t.Fatalf("no snapshot: %v", err)
		}
		telemetry("the snapshot", rec.Snapshot)
		return rec.Snapshot
	}
	if first, again := run(), run(); !bytes.Equal(first, again) {
		t.Fatalf("two runs of the same inputs wrote different snapshots:\n%s\n%s", first, again)
	}
}

// TestDecisionsLiveInTheEventLogAlone: a workflow's decisions are
// journalled once, as its decision events. No state record's state or
// patch and no snapshot entry holds a decision list or an adoption count,
// and a workflow crashed mid-life, recovered and run to done lists in its
// status the decisions an uninterrupted run lists, with as many adoptions
// as its plan generation is past the first.
func TestDecisionsLiveInTheEventLogAlone(t *testing.T) {
	l := blast24Life(t)
	cfg := Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour}
	noCopy := func(what string, doc json.RawMessage) {
		if doc == nil {
			return
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(doc, &keys); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, key := range []string{"decisions", "adoptions"} {
			if _, ok := keys[key]; ok {
				t.Errorf("%s holds %q", what, key)
			}
		}
	}
	type stateDoc struct{ State, Patch json.RawMessage }
	noCopies := func(shardDir string) {
		for i, data := range stateRecords(t, shardDir) {
			var doc stateDoc
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			noCopy(fmt.Sprintf("state record %d's state", i), doc.State)
			noCopy(fmt.Sprintf("state record %d's patch", i), doc.Patch)
		}
	}
	scrubbed := func(st wire.Status) wire.Status {
		st.Decisions = append([]wire.Decision(nil), st.Decisions...)
		for i := range st.Decisions {
			st.Decisions[i].ElapsedMs, st.Decisions[i].RankMs, st.Decisions[i].PlaceMs = 0, 0, 0
		}
		return st
	}

	srv, ts := openDurable(t, t.TempDir(), cfg)
	id := submitLife(t, ts, l)
	for _, body := range l.reports {
		postReport(t, ts, id, body)
	}
	want := scrubbed(waitDone(t, ts, id))
	ts.Close()
	srv.Crash()
	if want.Adoptions == 0 || want.Adoptions != want.Generation-1 {
		t.Fatalf("uninterrupted run: %d adoptions at generation %d, want at least one, each a generation", want.Adoptions, want.Generation)
	}

	dir := t.TempDir()
	srv, ts = openDurable(t, dir, cfg)
	submitLife(t, ts, l)
	half := len(l.reports) / 2
	for _, body := range l.reports[:half] {
		postReport(t, ts, id, body)
	}
	srv.shards[0].snapshot()
	for _, body := range l.reports[half : half+2] {
		postReport(t, ts, id, body)
	}
	rec, err := durable.Load(filepath.Join(dir, "shard-0"))
	if err != nil || rec.Snapshot == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	var snap struct{ Live []stateDoc }
	if err := json.Unmarshal(rec.Snapshot, &snap); err != nil || len(snap.Live) != 1 || snap.Live[0].State == nil {
		t.Fatalf("snapshot holds no live state: %v", err)
	}
	noCopy("the snapshot's live entry", snap.Live[0].State)
	noCopies(filepath.Join(dir, "shard-0"))
	ts.Close()
	srv.Crash()

	srv, ts = openDurable(t, dir, cfg)
	defer func() {
		ts.Close()
		srv.Crash()
	}()
	for _, body := range l.reports[half+2:] {
		postReport(t, ts, id, body)
	}
	got := scrubbed(waitDone(t, ts, id))
	if !reflect.DeepEqual(got.Decisions, want.Decisions) {
		t.Fatalf("recovered run lists decisions\n%+v\nwant\n%+v", got.Decisions, want.Decisions)
	}
	if got.Adoptions != want.Adoptions || got.Generation != want.Generation {
		t.Fatalf("recovered run: %d adoptions at generation %d, want %d at %d", got.Adoptions, got.Generation, want.Adoptions, want.Generation)
	}
	noCopies(filepath.Join(dir, "shard-0"))
}

// TestRestartsKeepReplayBounded restarts a daemon after every report,
// with no periodic snapshot: a restart writes nothing while its log holds
// only what the last run appended, and snapshots once the log spans an
// earlier start, so no restart replays more than the two runs before it
// appended and the replay does not grow with the number of restarts.
// What comes back at the end is what an uninterrupted run holds.
func TestRestartsKeepReplayBounded(t *testing.T) {
	l := blast24Life(t)
	cfg := Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour}
	const first, last = 4, 14
	srv, ts := openDurable(t, t.TempDir(), cfg)
	id := submitLife(t, ts, l)
	for _, body := range l.reports[:last] {
		postReport(t, ts, id, body)
	}
	want := observe(t, srv, ts, id, "chain")
	ts.Close()
	srv.Crash()

	dir := t.TempDir()
	srv, ts = openDurable(t, dir, cfg)
	submitLife(t, ts, l)
	for _, body := range l.reports[:first] {
		postReport(t, ts, id, body)
	}
	ts.Close()
	srv.Crash()
	for k := first; k <= last; k++ {
		srv, ts = openDurable(t, dir, cfg)
		r := srv.Recovery()
		// Restarts alternate: one run's appends in the log, nothing
		// written; two runs' appends, a snapshot. Until the first
		// snapshot the tail also holds the first run's log: the
		// submission and a state record per plan and report.
		snapshots := (k-first)%2 == 1
		wantRecords := 1 + (k-first)%2
		if k-first < 2 {
			wantRecords += first + 1
		}
		if r.WALRecords != wantRecords || (r.SnapshotMs > 0) != snapshots {
			t.Fatalf("restart %d replayed %d records (%d bytes), snapshot %.2f ms; want %d records, snapshot %v",
				k-first, r.WALRecords, r.WALBytes, r.SnapshotMs, wantRecords, snapshots)
		}
		if m := getMetrics(t, ts); m.WALRecordsSkipped != 0 {
			t.Fatalf("restart %d skipped %d records", k-first, m.WALRecordsSkipped)
		}
		if k == last {
			break
		}
		postReport(t, ts, id, l.reports[k])
		ts.Close()
		srv.Crash()
	}
	defer func() {
		ts.Close()
		srv.Crash()
	}()
	if d := observe(t, srv, ts, id, "chain").scrubbed().diff(want.scrubbed()); d != "" {
		t.Fatal(d)
	}
}
