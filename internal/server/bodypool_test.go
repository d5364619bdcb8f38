package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"aheft/internal/dag"
	"aheft/internal/durable"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// pooledSubmission is one random60 body of TestPooledBodyLeavesNoView.
type pooledSubmission struct {
	sc   *workload.Scenario
	live bool
	body []byte
}

// random60Submissions are the daemon's submit_analytic shape — a 60-job
// random DAG, CCR 2, out-degree 0.3, on a pool that grows four times —
// under n seeds, analytic and live in turn, each with its own name.
func random60Submissions(t *testing.T, n int) []pooledSubmission {
	t.Helper()
	var subs []pooledSubmission
	for i := range n {
		sc, err := workload.RandomScenario(workload.RandomParams{Jobs: 60, CCR: 2, OutDegree: 0.3, Beta: 0.5},
			workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4}, rng.New(uint64(0xD0E+i)))
		if err != nil {
			t.Fatal(err)
		}
		sub := &wire.Submission{Name: fmt.Sprintf("random60-%d", i), Policy: "aheft", Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool}
		if i%2 == 1 {
			sub.Mode, sub.Tenant = wire.ModeLive, fmt.Sprintf("tenant-%d", i)
		}
		body, err := wire.EncodeSubmission(sub)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, pooledSubmission{sc: sc, live: sub.Mode == wire.ModeLive, body: body})
	}
	return subs
}

// runPooled submits subs, in order, to srv while its one worker is
// wedged, calls wedged with the accepted IDs, then releases the worker,
// runs every live workflow out on its first plan and returns what a client
// sees of each workflow: its plan (live ones), status and event stream,
// wall-clock telemetry zeroed.
func runPooled(t *testing.T, srv *Server, ts *httptest.Server, subs []pooledSubmission, wedged func(ids []string)) []string {
	t.Helper()
	release := make(chan struct{})
	var once sync.Once
	let := func() { once.Do(func() { close(release) }) }
	t.Cleanup(let) // before the server's: a failed test must not wedge its drain
	srv.execHook = func(*workflow) { <-release }
	var ids []string
	for _, sub := range subs {
		got, resp := submit(t, ts, sub.body)
		if resp.StatusCode != 202 {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		ids = append(ids, got.ID)
	}
	wedged(ids)
	let()

	var seen []string
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, string(b))
	}
	for i, id := range ids {
		if subs[i].live {
			plan := fetchPlan(t, ts, id)
			add(plan)
			reportPlanExecution(t, ts, id, &plan)
		}
		st := waitDone(t, ts, id)
		st.QueueMs, st.ComputeMs = 0, 0
		for k := range st.Decisions {
			untimed(&st.Decisions[k])
		}
		add(st)
		resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev wire.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad SSE payload %q: %v", data, err)
				}
				if ev.Decision != nil {
					untimed(ev.Decision)
				}
				add(ev)
			}
		}
		resp.Body.Close()
	}
	return seen
}

// untimed zeroes a decision's wall-clock telemetry.
func untimed(d *wire.Decision) { d.ElapsedMs, d.RankMs, d.PlaceMs = 0, 0, 0 }

// drainBodies empties the body pool, handing each buffer it held to fn
// with its whole array.
func drainBodies(fn func(buf []byte)) {
	for range 1000 {
		b := takePooledBody()
		if b == nil {
			return
		}
		fn(b)
	}
}

// TestPooledBodyLeavesNoView: a daemon without a journal or a recorder
// hands each submission's body buffer back to a pool once it is decoded,
// so nothing a workflow keeps may be a view of it. Four random60 bodies
// go to a one-shard daemon whose worker is wedged: each is read into the
// buffer the one before it left, and the last is overwritten with 0xFF
// before the worker is let go. Every plan, status and event stream must
// equal those of a daemon that keeps its bodies (it records them), and
// every decoded graph its scenario's names and operations. With a data
// directory the buffer is journalled, never pooled.
func TestPooledBodyLeavesNoView(t *testing.T) {
	subs := random60Submissions(t, 5)
	sent := subs[4].body // to the journalling daemon alone
	subs = subs[:4]
	srv, ts := newTestServer(t, Config{Shards: 1, RecordDir: t.TempDir()})
	want := runPooled(t, srv, ts, subs, func([]string) {})

	// A collection empties the pool, and a buffer put on one P is not got
	// from another until it is moved to the pool's shared part: neither
	// may hide the buffer from the drain.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, ts = newTestServer(t, Config{Shards: 1})
	graphs := make([]*dag.Graph, len(subs))
	got := runPooled(t, srv, ts, subs, func(ids []string) {
		for i, id := range ids {
			wf, ok := srv.lookup(id)
			if !ok {
				t.Fatalf("%s is not registered", id)
			}
			graphs[i] = wf.running.sub.Graph
		}
		last, found := subs[len(subs)-1].body, false
		drainBodies(func(buf []byte) {
			found = found || bytes.Contains(buf, last)
			for i := range buf {
				buf[i] = 0xFF
			}
		})
		// The race detector drops a quarter of what goes into a pool.
		if !found && !raceEnabled {
			t.Fatal("the last body's buffer is not in the pool")
		}
	})
	if len(got) != len(want) {
		t.Fatalf("pooled daemon: %d documents, recording one %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("document %d differs:\npooled    %s\nrecording %s", i, got[i], want[i])
		}
	}
	for i, g := range graphs {
		for j, job := range subs[i].sc.Graph.Jobs() {
			if have := g.Job(dag.JobID(j)); have.Name != job.Name || have.Op != job.Op {
				t.Fatalf("submission %d job %d decoded as %q/%q, want %q/%q", i, j, have.Name, have.Op, job.Name, job.Op)
			}
		}
	}

	t.Run("data-dir", func(t *testing.T) {
		dir := t.TempDir()
		srv, ts := openDurable(t, dir, Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour})
		WedgeUntilCrash(srv)
		body := sent
		if _, resp := submit(t, ts, body); resp.StatusCode != 202 {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		drainBodies(func(buf []byte) {
			if bytes.Contains(buf, body) {
				t.Fatal("a journalling daemon pooled the body's buffer")
			}
		})
		srv.Crash()
		ts.Close()
		rec, err := durable.Load(filepath.Join(dir, "shard-0"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Records) != 1 {
			t.Fatalf("the log holds %d records, want the submission", len(rec.Records))
		}
		var p walSubmission
		if err := scanDoc(rec.Records[0].Data, &p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Body, body) {
			t.Fatalf("the journal holds %d bytes that are not the %d sent", len(p.Body), len(body))
		}
	})
}
