package server

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"aheft/internal/durable"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// The parallel-recovery suite: recovery folds the shard directories side
// by side and decodes state records with a hand-written decoder, so what
// comes back must not depend on how the folds interleave, on how many
// directories fold onto one shard, or on which decoder read a record.

// oracleDecodeWALState and oracleDecodeWALSubmission are the payload
// decoders recovery used before walState.decode and walSubmission.decode:
// json.Unmarshal over the tagged structs.
func oracleDecodeWALState(data []byte) (walState, error) {
	var p walState
	err := json.Unmarshal(data, &p)
	return p, err
}

func oracleDecodeWALSubmission(data []byte) (walSubmission, error) {
	var p walSubmission
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

// FuzzDecodeWALStateParity holds the two hand-written payload decoders to
// json.Unmarshal on any bytes: the same accept or reject — so the same
// records are skipped and the same chains broken — and deeply equal
// values when accepted, repeated and case-folded keys included. Seeded
// with the full-state fixture's records (whole states, retired decision
// fields), patch records of a recorded BLAST life (the committed corpus:
// testdata/fuzz/FuzzDecodeWALStateParity/life-*, cut from the log
// TestStateRecordBytes writes) and the corners.
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
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var got walState
		gotErr := got.decode(doc)
		want, wantErr := oracleDecodeWALState(doc)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("state: accept/reject differs: decoder %v, oracle %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("state: decoded values differ:\n got %+v\nwant %+v", got, want)
		}
		var sub walSubmission
		subErr := sub.decode(doc)
		wantSub, wantSubErr := oracleDecodeWALSubmission(doc)
		if (subErr == nil) != (wantSubErr == nil) {
			t.Fatalf("submission: accept/reject differs: decoder %v, oracle %v", subErr, wantSubErr)
		}
		if subErr == nil && !reflect.DeepEqual(sub, wantSub) {
			t.Fatalf("submission: decoded values differ:\n got %+v\nwant %+v", sub, wantSub)
		}
	})
}

// BenchmarkWALStateDecode times walState.decode over the patch records of
// a BLAST workflow's whole life (the whole state that starts the chain is
// json.Unmarshal's either way), one record per op in log order, and under
// oracle/ json.Unmarshal on the same records in the same run; CI gates the
// ratio of the two.
func BenchmarkWALStateDecode(b *testing.B) {
	l := blast24Life(b)
	dir := b.TempDir()
	srv, ts := openDurable(b, dir, Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour})
	id := submitLife(b, ts, l)
	for _, body := range l.reports {
		postReport(b, ts, id, body)
	}
	ts.Close()
	srv.Crash()
	recs := stateRecords(b, filepath.Join(dir, "shard-0"))[1:]
	total := 0
	for _, r := range recs {
		total += len(r)
	}
	run := func(name string, decode func([]byte) error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(total / len(recs)))
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if err := decode(recs[i%len(recs)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
	run("scan", func(data []byte) error { return new(walState).decode(data) })
	run("oracle", func(data []byte) error { _, err := oracleDecodeWALState(data); return err })
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
// from the snapshots that close it — written before any worker starts, so
// they are the recovered state and nothing after it: every live workflow's
// record (tracker state, event log, plan bookkeeping), every pending body
// in re-enqueue order, terminal records, tenant history cells, the
// workflow sequence — plus the registry's retention order.
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
	srv, err := Open(cfg)
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
// one, two and eight fold workers and requires the same daemon each time,
// bit for bit: the closing snapshots (every tracker's exported state,
// every event log, the tenant histories' cells, the pending bodies in
// re-enqueue order, the workflow sequence) and the terminal retention
// order. GOMAXPROCS=1 is one worker taking the targets in turn.
func TestRecoveryIndependentOfParallelism(t *testing.T) {
	mix := newCrashedMix(t, 4)
	cfg := Config{Shards: 4, WALSync: "off", SnapshotInterval: time.Hour}
	var first recovered
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		rec, _ := recoverCopy(t, mix.dir, cfg, len(mix.terminal))
		runtime.GOMAXPROCS(prev)
		rec.check(t, mix)
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

// TestRecoverAfterShardCountChange recovers a directory under a shard
// count other than the one that wrote it — 8 to 4, where two directories
// fold onto each shard and the orphans are removed afterwards, and 4 to 8
// — and requires every workflow back as a same-count recovery brings it
// back. Then the 8-to-4 recovery is cut short before it removed its
// orphans: the next start meets some workflows twice, in their new
// shard's snapshot and in the orphan's log, and must still bring back
// each once, as it was.
func TestRecoverAfterShardCountChange(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{8, 4}, {4, 8}} {
		t.Run(fmt.Sprintf("%d to %d", tc.from, tc.to), func(t *testing.T) {
			mix := newCrashedMix(t, tc.from)
			cfg := Config{WALSync: "off", SnapshotInterval: time.Hour}
			cfg.Shards = tc.from
			same, _ := recoverCopy(t, mix.dir, cfg, len(mix.terminal))
			same.check(t, mix)
			cfg.Shards = tc.to
			changed, dir := recoverCopy(t, mix.dir, cfg, len(mix.terminal))
			changed.check(t, mix)
			if !reflect.DeepEqual(changed.live, same.live) {
				t.Fatalf("live workflows came back differently under %d shards than under %d", tc.to, tc.from)
			}
			if !reflect.DeepEqual(changed.retained, same.retained) {
				t.Fatalf("retention order %v under %d shards, %v under %d", changed.retained, tc.to, same.retained, tc.from)
			}
			left, _ := filepath.Glob(filepath.Join(dir, "shard-*"))
			if len(left) != tc.to {
				t.Fatalf("%d shard directories after recovery, want %d: %v", len(left), tc.to, left)
			}
			if tc.to > tc.from {
				return
			}
			for i := tc.to; i < tc.from; i++ {
				copyDir(t, filepath.Join(mix.dir, fmt.Sprintf("shard-%d", i)), filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
			}
			again, _ := recoverCopy(t, dir, cfg, 0)
			if !reflect.DeepEqual(again.live, same.live) {
				t.Fatalf("live workflows came back differently with the orphan directories still there")
			}
		})
	}
}

// TestRecoveredWorkflowsKeepRunning drives a mix recovered under fewer
// shards to the end: every live workflow takes the rest of its plan's
// reports and finishes, every pending submission runs.
func TestRecoveredWorkflowsKeepRunning(t *testing.T) {
	mix := newCrashedMix(t, 8)
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
