package server

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aheft/internal/durable"
	"aheft/internal/jsonscan"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// The parallel-recovery suite: recovery folds the shard directories side
// by side and decodes state records with a hand-written decoder, so what
// comes back must not depend on how the folds interleave, on how many
// directories fold onto one shard, or on which decoder read a record.

// oracleDecodeWALState is the state-record decoder recovery used before
// walState.scan: json.Unmarshal over the tagged struct.
func oracleDecodeWALState(data []byte) (walState, error) {
	var p walState
	err := json.Unmarshal(data, &p)
	return p, err
}

// stateRecords returns the state-record payloads of a shard directory's
// log, in log order.
func stateRecords(t testing.TB, shardDir string) [][]byte {
	t.Helper()
	rec, err := durable.Load(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, r := range rec.Records {
		if r.Kind == wire.WALState {
			out = append(out, r.Data)
		}
	}
	return out
}

// FuzzDecodeWALStateParity holds the hand-written journal decoders — every
// record kind's and the snapshot's, whole states included — to
// json.Unmarshal on any bytes: the same accept or reject — so the same
// records are skipped and the same chains broken — and deeply equal
// values when accepted, repeated and case-folded keys included. Seeded
// with the full-state fixture's records (whole states, retired decision
// fields), patch records of a recorded BLAST life (the committed corpus:
// testdata/fuzz/FuzzDecodeWALStateParity/life-*, cut from the log
// TestStateRecordBytes writes) and the corners: phase as base64, as an
// array and as null, reservations and decisions in a whole state, and
// snapshots.
func FuzzDecodeWALStateParity(f *testing.F) {
	for _, shard := range []string{"shard-0", "shard-1"} {
		for _, p := range stateRecords(f, filepath.Join("testdata", "wal-full-states", shard)) {
			f.Add(p)
		}
	}
	for _, s := range []string{
		`{}`, `null`, `[]`, `7`, `not json`, `{"id":"wf-1","body":{"v":2,"graph":null}}`, `{"id":"wf-1","body":null}`, `{"ID":"a","Body":[1],"body":2}`,
		`{"id":"wf-1","tenant":"t","rev":3,"acked_gen":2,"reports":5,"plan_trigger":"arrival","fast_path":true,"upgraded":false}`,
		`{"id":"wf-1","rev":2,"patch":{"generation":2,"initial":80,"clock":15,"adoptions":1,"done":false,"makespan":0,` +
			`"jobs":[{"job":3,"phase":2,"start_at":1.5,"start_res":2,"finish_at":9,"pin_dur":7.5},null],"avail":[3,null],` +
			`"assignments":[{"job":4,"resource":1,"start":10,"finish":12}],` +
			`"decisions":[{"clock":15,"pool_size":4,"old_makespan":-1,"new_makespan":76,"adopted":true,"jobs_finished":3,"trigger":"arrival","arrived":1,"path":"full","fallback":"x"}],` +
			`"transfers":{"del":[0,2],"put":[{"at":1,"v":{"from":1,"to":2,"resource":3,"at":4.5}}]},` +
			`"reservations":{"put":[{"at":0,"v":{"Job":1,"Resource":2,"Start":3,"Finish":4,"Pinned":true}},{"at":1,"v":null}]}},` +
			`"deltas":[{"op":"blast","resource":2,"duration":7.5}],` +
			`"events":[{"seq":4,"kind":"decision","workflow":"wf-1","time":15,"decision":{"clock":15,"elapsed_ms":0.2,"rank_ms":0.1,"place_ms":0.1},"trigger":"arrival","arrived":1},` +
			`{"seq":5,"kind":"plan","workflow":"wf-1","generation":2,"makespan":76,"error":"é"}]}`,
		`{"id":"a","patch":null,"state":null,"deltas":null,"events":null}`, `{"id":"a","patch":[1]}`, `{"id":"a","state":[1]}`, `{"id":[1],"rev":2}`,
		`{"id":"a","patch":{"jobs":[{"job":1,"phase":256}]}}`, `{"id":"a","patch":{"jobs":[{"job":1,"phase":-1}]}}`, `{"id":"a","patch":{"jobs":[{"phase":1.0}]}}`,
		`{"id":"a","patch":{"jobs":[{"job":1}]},"patch":{"jobs":[{"phase":2},{"job":5}],"avail":[]}}`, `{"id":"a","patch":{"avail":[1,2]},"PATCH":{"avail":[7]}}`,
		`{"id":"a","patch":{"transfers":{"del":[1]}},"patch":{"transfers":null,"reservations":{"PUT":[{"AT":1,"V":{"job":2,"pinned":true}}]}}}`,
		`{"id":"a","events":[{"decision":{"clock":1}}],"events":[{"decision":{"pool_size":2}},{"decision":null}]}`, `{"id":"a","events":[{"seq":"1"}]}`,
		`{"id":"a","state":{"generation":1,"phase":"AQI=","avail":[true]},"state":{"clock":3}}`, `{"id":"a","state":{"phase":[1,2]}}`,
		`{"id":"a","deltas":[{"op":"x","resource":1e2}]}`, `{"id":"a","rev":1e1}`, `{"id":"a","fast_path":1}`, `{"id":"a","reports":99999999999999999999}`,
		`{"id":"a","patch":{"clock":1e999}}`, `{"id":"a","patch":{"decisions":[{"trigger":"\ud800"}]}}`, `{"id":"a","patch":{"makespan":-0.0}} `, `{"id":"a","patch":{}} x`,
		`{"ıd":"a","tenant":"kelvin K","Tenant":"t2"}`, `{"id":"a","patch":{"reservations":{"put":[{"v":{"Resource":99999999999999999999}}]}}}`,
		`{"id":"a","state":{"phase":"AQI","avail":[1]}}`, `{"id":"a","state":{"phase":"A\nQI=","start_at":[1,"2"]}}`, `{"id":"a","state":{"phase":null},"state":{"phase":[3,null]}}`,
		`{"id":"a","state":{"phase":[1],"Phase":"AgM=","pin_dur":[1e400]}}`, `{"id":"a","state":{"phase":7}}`, `{"id":"a","state":{"phase":{}}}`,
		`{"id":"a","state":{"generation":3,"phase":"","avail":[true,false,null],"start_res":[1,-2],"finish_at":null,` +
			`"reservations":[{"Job":1,"Resource":2,"Start":3,"Finish":4,"Pinned":true},null,{"job":5,"pinned":1}],` +
			`"transfers":[{"from":1,"to":2,"resource":0,"at":1.5}],` +
			`"decisions":[{"clock":15,"pool_size":4,"old_makespan":-1,"new_makespan":76,"adopted":true,"jobs_finished":3,"trigger":"arrival","arrived":1},{"trigger":"variance"}],` +
			`"assignments":[{"job":0,"resource":1,"start":0,"finish":2}],"done":true,"adoptions":1,"makespan":76}}`,
		`{"v":2,"seq":9,"grids":[{"name":"g","spec":{"v":2}},{"NAME":"h","spec":null}],"pending":[{"id":"wf-3","body":{}}],"admissions":[{"id":"wf-3","weight":2}],` +
			`"live":[{"id":"wf-1","body":{},"state":{"generation":1,"phase":"AA=="}},null],"terminal":[{"id":"wf-9","status":{"state":"done"}}],` +
			`"tenants":[{"tenant":"t","alpha":0.3,"cells":[{"op":"x","resource":1,"count":2}]}]}`,
		`{"v":2,"live":[{"id":"a","state":{"phase":[256]}}]}`, `{"v":2,"terminal":[{"id":1}]}`, `{"v":2,"tenants":7}`, `{"v":2,"seq":-1}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		for name, mk := range journalDocs {
			got, ok := mk().(interface{ scan(*jsonscan.Scanner) })
			if !ok || name == "terminal" {
				continue // json.Unmarshal's either way
			}
			gotErr := scanDoc(doc, got)
			want := mk()
			wantErr := json.Unmarshal(doc, want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: accept/reject differs: decoder %v, oracle %v", name, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded values differ:\n got %+v\nwant %+v", name, got, want)
			}
		}
	})
}

// BenchmarkWALStateDecode times the state-record decoder over the patch
// records of a BLAST workflow's whole life, one record per op in log
// order, and under whole/ over the whole state that starts the chain;
// under oracle/ json.Unmarshal on the same records in the same run. CI
// gates the ratios.
func BenchmarkWALStateDecode(b *testing.B) {
	recs := blastStateRecords(b)
	run := func(name string, recs [][]byte, decode func([]byte) error) {
		total := 0
		for _, r := range recs {
			total += len(r)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(total / len(recs)))
			b.ReportAllocs()
			i := 0
			b.ResetTimer()
			for range b.N {
				if err := decode(recs[i%len(recs)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
	scan := func(data []byte) error { return scanDoc(data, new(walState)) }
	oracle := func(data []byte) error { _, err := oracleDecodeWALState(data); return err }
	run("scan", recs[1:], scan)
	run("oracle", recs[1:], oracle)
	run("whole", recs[:1], scan)
	run("oracle/whole", recs[:1], oracle)
}

// crashedMix is a data directory left by a killed daemon that held a bit
// of everything recovery sorts: live workflows of two tenants on private
// pools and three on a shared grid, most part-way through their reports
// (one batch per event, so the chains are long), one shard snapshotted
// mid-way, analytic and live workflows run to their terminal records, and
// submissions accepted but never started.
type crashedMix struct {
	dir                     string
	live, terminal, pending []string
	reported                map[string][]wire.ReportEvent // what each live workflow's enactor has sent
}

func newCrashedMix(t *testing.T, shards int) crashedMix {
	t.Helper()
	mix := crashedMix{dir: t.TempDir(), reported: map[string][]wire.ReportEvent{}}
	sc := workload.SampleScenario()
	srv, ts := openDurable(t, mix.dir, Config{Shards: shards, WALSync: "off", SnapshotInterval: time.Hour})
	var wedged atomic.Bool
	srv.execHook = func(*workflow) {
		if wedged.Load() {
			<-srv.runCtx.Done()
		}
	}
	registerGrid(t, ts, "shared", sc)
	for i := 0; i < 12; i++ {
		sub, resp := submit(t, ts, encodeLive(t, sc, "aheft", fmt.Sprintf("t%d", i%2), wire.Options{}))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		mix.live = append(mix.live, sub.ID)
	}
	for _, tenant := range []string{"alice", "bob", "alice"} {
		mix.live = append(mix.live, submitShared(t, ts, "shared", tenant, sc))
	}
	enact := func(id string, from, to float64) {
		plan := waitPlan(t, ts, id)
		for _, ev := range replayPrefix(*plan, to) {
			if ev.Time < from {
				continue
			}
			var ack wire.ReportAck
			if code, msg := postJSON(t, ts, "/v1/workflows/"+id+"/report", encodeReport(t, ev), &ack); code != http.StatusOK {
				t.Fatalf("report %s: HTTP %d (%s)", id, code, msg)
			}
			mix.reported[id] = append(mix.reported[id], ev)
		}
	}
	for i, id := range mix.live {
		if i%3 != 2 {
			enact(id, 0, 30.5)
		}
	}
	srv.shards[0].snapshot()
	for i, id := range mix.live {
		if i%3 == 0 {
			enact(id, 30.5, 60.5)
		}
	}
	for i := 0; i < 4; i++ {
		sub, resp := submit(t, ts, encodeScenario(t, sc, "aheft", wire.Options{TieWindow: 0.05}))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit analytic %d: HTTP %d", i, resp.StatusCode)
		}
		waitDone(t, ts, sub.ID)
		mix.terminal = append(mix.terminal, sub.ID)
	}
	last := len(mix.live) - 4 // a private one, untouched so far
	reportPlanExecution(t, ts, mix.live[last], waitPlan(t, ts, mix.live[last]))
	mix.terminal = append(mix.terminal, mix.live[last])
	mix.live = append(mix.live[:last], mix.live[last+1:]...)

	wedged.Store(true)
	for i := 0; i < 6; i++ {
		sub, resp := submit(t, ts, encodeScenario(t, sc, "aheft", wire.Options{Class: []string{wire.ClassLow, wire.ClassHigh}[i%2]}))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit pending %d: HTTP %d", i, resp.StatusCode)
		}
		mix.pending = append(mix.pending, sub.ID)
	}
	srv.Crash()
	ts.Close()
	return mix
}

// recovered is what one recovery of a data directory brought back, read
// from snapshots taken where it ends (recoveredHook) — before any worker
// starts, so they are the recovered state and nothing after it: every
// live workflow's record (tracker state, event log, plan bookkeeping),
// every pending body in re-enqueue order, terminal records, tenant
// history cells, the workflow sequence — plus the registry's retention
// order.
type recovered struct {
	snapshots []string // shard i's snapshot document
	live      map[string]string
	pending   []string // sorted
	terminal  []string // sorted
	retained  []string
	seq       uint64
	stats     RecoveryStats
}

// recoverCopy recovers a copy of src under cfg and kills the daemon.
func recoverCopy(t *testing.T, src string, cfg Config, nTerminal int) (recovered, string) {
	t.Helper()
	dir := t.TempDir()
	copyDir(t, src, dir)
	cfg.DataDir = dir
	recoveredHook = func(s *Server) {
		for _, sh := range s.shards {
			sh.snapshot()
		}
	}
	srv, err := Open(cfg)
	recoveredHook = nil
	if err != nil {
		t.Fatal(err)
	}
	rec := recovered{live: map[string]string{}, stats: srv.Recovery()}
	// Pending submissions start running at once and retire behind the
	// recovered terminals.
	srv.mu.RLock()
	rec.retained = append(rec.retained, srv.retained[:nTerminal]...)
	srv.mu.RUnlock()
	srv.Crash()
	for i := 0; i < cfg.Shards; i++ {
		files, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%d", i), "snap-*.json"))
		if len(files) != 1 {
			t.Fatalf("shard %d: %d snapshots after recovery", i, len(files))
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		rec.snapshots = append(rec.snapshots, string(data))
		var snap shardSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		rec.seq = max(rec.seq, snap.Seq)
		for _, p := range snap.Pending {
			rec.pending = append(rec.pending, p.ID)
		}
		for _, p := range snap.Terminal {
			rec.terminal = append(rec.terminal, p.ID)
		}
		for _, p := range snap.Live {
			p.Body = nil
			entry, err := json.Marshal(&p)
			if err != nil {
				t.Fatal(err)
			}
			rec.live[p.ID] = string(entry)
		}
	}
	sort.Strings(rec.pending)
	sort.Strings(rec.terminal)
	return rec, dir
}

func sorted(ids []string) []string { return slices.Sorted(slices.Values(ids)) }

// check requires the recovery to have brought the mix back whole.
func (rec recovered) check(t *testing.T, mix crashedMix) {
	t.Helper()
	if live := slices.Sorted(maps.Keys(rec.live)); !reflect.DeepEqual(live, sorted(mix.live)) {
		t.Fatalf("live workflows %v, want %v", live, sorted(mix.live))
	}
	if !reflect.DeepEqual(rec.pending, sorted(mix.pending)) {
		t.Fatalf("pending submissions %v, want %v", rec.pending, sorted(mix.pending))
	}
	if !reflect.DeepEqual(rec.terminal, sorted(mix.terminal)) || !reflect.DeepEqual(sorted(rec.retained), sorted(mix.terminal)) {
		t.Fatalf("terminal records %v (retained %v), want %v", rec.terminal, rec.retained, mix.terminal)
	}
	if want := uint64(len(mix.live) + len(mix.terminal) + len(mix.pending)); rec.seq != want || rec.stats.Workflows != uint64(len(mix.live)) {
		t.Fatalf("workflow sequence %d, %d recovered live; want %d and %d", rec.seq, rec.stats.Workflows, want, len(mix.live))
	}
}

// TestRecoveryIndependentOfParallelism recovers one crashed directory with
// one, two and eight workers folding the directories and rebuilding the
// submissions, and requires the same daemon each time, bit for bit: the
// snapshots taken where recovery ends (every tracker's exported state,
// every event log, the tenant histories' cells, the pending bodies in
// re-enqueue order, the workflow sequence) byte-equal, and the terminal
// retention order.
// GOMAXPROCS=1 is one worker taking the targets in turn. Every snapshot is
// json.Marshal's rendering of itself: the bodies it holds are compact.
func TestRecoveryIndependentOfParallelism(t *testing.T) {
	mix := newCrashedMix(t, 4)
	cfg := Config{Shards: 4, WALSync: "off", SnapshotInterval: time.Hour}
	var first recovered
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		rec, _ := recoverCopy(t, mix.dir, cfg, len(mix.terminal))
		runtime.GOMAXPROCS(prev)
		rec.check(t, mix)
		for i, snap := range rec.snapshots {
			var doc shardSnapshot
			if err := json.Unmarshal([]byte(snap), &doc); err != nil {
				t.Fatal(err)
			}
			if want, err := json.Marshal(&doc); err != nil || string(want) != snap {
				t.Fatalf("GOMAXPROCS=%d: shard %d snapshot is not json.Marshal's (err %v):\n got %s\nwant %s", procs, i, err, snap, want)
			}
		}
		if procs == 1 {
			first = rec
			continue
		}
		for i := range rec.snapshots {
			if rec.snapshots[i] != first.snapshots[i] {
				t.Errorf("GOMAXPROCS=%d: shard %d recovered differently than with one worker:\n got %s\nwant %s",
					procs, i, rec.snapshots[i], first.snapshots[i])
			}
		}
		if !reflect.DeepEqual(rec.retained, first.retained) {
			t.Errorf("GOMAXPROCS=%d: retention order %v, want %v", procs, rec.retained, first.retained)
		}
	}
}

// TestDataDirOwnsItsShardCount holds a data directory to the shard count
// of its first start. A start under another count refuses, naming both
// counts, before it writes a byte; under its own count the same
// directory recovers whole. A directory from before the layout record
// takes its count from its shard directories, recovers, and writes the
// record and nothing else; one whose directories do not form shard-0 to
// shard-<k-1>, or that holds a workflow in two of them, refuses, naming
// what is wrong.
func TestDataDirOwnsItsShardCount(t *testing.T) {
	mix := newCrashedMix(t, 4)
	cfg := Config{Shards: 4, WALSync: "off", SnapshotInterval: time.Hour}
	layout := filepath.Join(mix.dir, layoutFile)
	if data, err := os.ReadFile(layout); err != nil || string(data) != `{"v":1,"shards":4}` {
		t.Fatalf("layout record %q, %v", data, err)
	}
	// refuses opens a copy of src, after edit, under shards and requires
	// an error holding every one of want and the copy untouched.
	refuses := func(src string, shards int, edit func(dir string), want ...string) {
		t.Helper()
		dir := t.TempDir()
		copyDir(t, src, dir)
		if edit != nil {
			edit(dir)
		}
		before := treeFiles(t, dir)
		c := cfg
		c.Shards, c.DataDir = shards, dir
		srv, err := Open(c)
		if err == nil {
			srv.Crash()
			t.Fatalf("opened under %d shards, want a refusal naming %q", shards, want)
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("refusal %q does not name %q", err, w)
			}
		}
		if after := treeFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("the refused start changed the directory: %d files, were %d", len(after), len(before))
		}
	}
	refuses(mix.dir, 8, nil, "holds 4 shards", "-shards is 8", "empty directory")
	refuses(mix.dir, 2, nil, "holds 4 shards", "-shards is 2")
	refuses(mix.dir, 4, func(dir string) { os.Mkdir(filepath.Join(dir, "shard-7"), 0o755) }, "shard-7")
	own, _ := recoverCopy(t, mix.dir, cfg, len(mix.terminal))
	own.check(t, mix)

	legacy := t.TempDir()
	copyDir(t, mix.dir, legacy)
	if err := os.Remove(filepath.Join(legacy, layoutFile)); err != nil {
		t.Fatal(err)
	}
	old, _ := recoverCopy(t, legacy, cfg, len(mix.terminal))
	old.check(t, mix)
	if !reflect.DeepEqual(old.live, own.live) {
		t.Fatal("live workflows came back differently without the layout record")
	}
	before := treeFiles(t, legacy)
	var after map[string]string
	recoveredHook = func(*Server) { after = treeFiles(t, legacy) }
	c := cfg
	c.DataDir = legacy
	srv, err := Open(c)
	recoveredHook = nil
	if err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	before[filepath.Join(legacy, layoutFile)] = `{"v":1,"shards":4}`
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("recovering a directory without a layout record wrote more than the record: %d files, want %d", len(after), len(before))
	}
	os.Remove(filepath.Join(legacy, layoutFile))

	refuses(legacy, 8, nil, "holds 4 shards", "-shards is 8")
	refuses(legacy, 4, func(dir string) { os.RemoveAll(filepath.Join(dir, "shard-2")) }, "shard-3", "layout of 3 shards")
	refuses(legacy, 4, func(dir string) { os.Mkdir(filepath.Join(dir, "shard-9"), 0o755) }, "shard-9")
	// What a change of count cut short leaves: a submission journalled on
	// a shard besides its own, or on a shard other than the one it runs on.
	submitted := func(id string, shard int, body []byte) func(dir string) {
		return func(dir string) {
			store, _, err := durable.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", shard)), durable.SyncOff, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if _, err := store.Append(wire.WALSubmission, &walSubmission{ID: id, Body: body}); err != nil {
				t.Fatal(err)
			}
		}
	}
	body := encodeScenario(t, workload.SampleScenario(), "aheft", wire.Options{})
	id, stray := mix.pending[0], "wf-00000900"
	home, other := shardFor(id, 4), (shardFor(id, 4)+1)%4
	refuses(legacy, 4, submitted(id, other, body), id, fmt.Sprintf("shard-%d", home), fmt.Sprintf("shard-%d", other))
	refuses(legacy, 4, submitted(stray, (shardFor(stray, 4)+1)%4, body), stray, fmt.Sprintf("runs on shard %d", shardFor(stray, 4)))
}

// TestRecoveredWorkflowsKeepRunning drives a recovered mix to the end:
// every live workflow takes the rest of its plan's reports and finishes,
// every pending submission runs.
func TestRecoveredWorkflowsKeepRunning(t *testing.T) {
	mix := newCrashedMix(t, 4)
	srv, ts := openDurable(t, mix.dir, Config{Shards: 4, WALSync: "off", SnapshotInterval: time.Hour})
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	for _, id := range mix.pending {
		if st := waitDone(t, ts, id); st.State != StateDone {
			t.Fatalf("pending %s: %+v", id, st)
		}
	}
	for _, id := range mix.live {
		plan := waitPlan(t, ts, id)
		var ack wire.ReportAck
		if code, msg := postJSON(t, ts, "/v1/workflows/"+id+"/report", encodeReport(t, remainingEvents(plan, mix.reported[id])...), &ack); code != http.StatusOK || !ack.Done {
			t.Fatalf("finish %s: HTTP %d (%s), ack %+v", id, code, msg, ack)
		}
	}
}

// treeFiles maps every file under dir to its bytes.
func treeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRecoveryWritesNothingOnUnchangedLayout recovers the crashed mix
// under the shard count that wrote it: no log spans an earlier start or
// held a skipped record, so up to the moment the workers start recovery
// has written nothing — every shard directory holds the files and bytes
// it held — and snapshot_ms is 0.
func TestRecoveryWritesNothingOnUnchangedLayout(t *testing.T) {
	mix := newCrashedMix(t, 4)
	before := treeFiles(t, mix.dir)
	var after map[string]string
	recoveredHook = func(*Server) { after = treeFiles(t, mix.dir) }
	srv, err := Open(Config{Shards: 4, DataDir: mix.dir, WALSync: "off", SnapshotInterval: time.Hour})
	recoveredHook = nil
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Recovery()
	srv.Crash()
	if st.Workflows != uint64(len(mix.live)) || st.SnapshotMs != 0 {
		t.Fatalf("recovery %+v: want %d live workflows and no snapshot", st, len(mix.live))
	}
	for _, name := range slices.Sorted(maps.Keys(before)) {
		if after[name] != before[name] {
			t.Errorf("%s changed: %d bytes, were %d", name, len(after[name]), len(before[name]))
		}
	}
	for _, name := range slices.Sorted(maps.Keys(after)) {
		if _, ok := before[name]; !ok {
			t.Errorf("recovery wrote %s", name)
		}
	}

}

// TestParseWorkflowSeq pins the workflow sequence recovery reads from an
// ID to what fmt.Sscanf(id, "wf-%d", &n) made of it.
func TestParseWorkflowSeq(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want uint64
	}{
		{"wf-00000012", 12},
		{"wf-12x", 12},
		{"wf-0", 0},
		{"wf-18446744073709551615", math.MaxUint64},
		{"wf-18446744073709551616", 0}, // overflows
		{"wf- 7", 7},
		{"wf-\t\v\f\r 7", 7},
		{"wf- 　  7", 7},
		{"wf-\n7", 0},
		{"wf-\r\n7", 0},
		{"wf-+7", 0},
		{"wf--7", 0},
		{"wf-", 0},
		{"wf-x1", 0},
		{"wf-\xff1", 0},
		{" wf-7", 0},
		{"WF-7", 0},
		{"wf7", 0},
		{"", 0},
	} {
		var n uint64
		if c, _ := fmt.Sscanf(tc.id, "wf-%d", &n); c != 1 {
			n = 0
		}
		if n != tc.want {
			t.Fatalf("table row %q: fmt.Sscanf reads %d, the row says %d", tc.id, n, tc.want)
		}
		if got := parseWorkflowSeq(tc.id); got != tc.want {
			t.Errorf("parseWorkflowSeq(%q) = %d, want %d", tc.id, got, tc.want)
		}
	}
}
