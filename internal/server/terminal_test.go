package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// analyticBodies pre-encodes n 60-job random-DAG submissions of the shape
// the daemon's throughput benchmarks use (bench_test.go's
// serverBenchBodies): 8 resources growing by 2 four times, so an AHEFT
// run makes up to four rescheduling decisions.
func analyticBodies(t testing.TB, n int) [][]byte {
	t.Helper()
	r := rng.New(0xD0E)
	out := make([][]byte, n)
	for i := range out {
		sc, err := workload.RandomScenario(workload.RandomParams{
			Jobs: 60, CCR: 2, OutDegree: 0.3, Beta: 0.5,
		}, workload.GridParams{
			InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4,
		}, r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = encodeScenario(t, sc, "aheft", wire.Options{})
	}
	return out
}

// TestTerminalRecordBudget bounds what the daemon keeps per finished
// workflow. It retains up to Config.MaxRetained (16 384) terminal records,
// so a busy daemon's resident memory is this figure times that — a
// record that grows by a kilobyte costs tens of megabytes of RSS.
func TestTerminalRecordBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4000 workflows")
	}
	const n, budget = 4000, 1600
	srv := New(Config{Shards: 2, QueueDepth: -1})
	defer srv.Shutdown(t.Context())
	bodies := analyticBodies(t, 8)
	run := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := srv.InjectRecorded(fmt.Sprintf("wf-%08d", i), bodies[i%len(bodies)]); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(2 * time.Minute)
		for srv.metrics.inflight() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d workflows still in flight", srv.metrics.inflight())
			}
			time.Sleep(time.Millisecond)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Fill whatever the daemon sizes once (latency windows, shard
	// scratch, the registry's first buckets) before the baseline.
	run(1, 501)
	before := heap()
	run(501, 501+n)
	after := heap()

	decisions := 0
	for i := 501; i < 501+n; i++ {
		wf, ok := srv.lookup(fmt.Sprintf("wf-%08d", i))
		if !ok {
			t.Fatalf("workflow %d not retained", i)
		}
		if st := wf.status(); st.State != StateDone {
			t.Fatalf("workflow %d: %+v", i, st)
		} else {
			decisions += len(st.Decisions)
		}
		if wf.running != nil {
			t.Fatalf("workflow %d keeps its running half", i)
		}
	}
	per := float64(int64(after)-int64(before)) / n
	t.Logf("%.0f B retained per terminal workflow (%.1f decisions each)", per, float64(decisions)/n)
	if per > budget {
		t.Fatalf("a terminal analytic workflow retains %.0f B, budget %d", per, budget)
	}
}

// followEvents reads one SSE stream to its end.
func followEvents(body io.Reader) ([]wire.Event, error) {
	var out []wire.Event
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev wire.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return nil, err
			}
			out = append(out, ev)
		}
	}
	return out, sc.Err()
}

func getEvents(t *testing.T, ts *httptest.Server, id string) []wire.Event {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs, err := followEvents(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func getStatusBytes(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d, %v", id, resp.StatusCode, err)
	}
	return string(doc)
}

// TestFinishedEqualsRecovered pins the claim behind workflow.settle: a
// terminal record is the same thing whether its workflow finished in this
// process or was read back from the journal. For an analytic and a live
// workflow, the event stream a subscriber followed while the workflow
// ran, the stream replayed after it finished and the stream served after
// a crash and restart are equal entry for entry, and GET
// /v1/workflows/{id} answers with the same bytes before and after the
// restart.
func TestFinishedEqualsRecovered(t *testing.T) {
	sc := workload.SampleScenario()
	opts := wire.Options{TieWindow: 0.05}
	enactLive := func(t *testing.T, ts *httptest.Server, id string) {
		plan := fetchPlan(t, ts, id)
		evs := append(drive.Replay(&plan, 15, nil), wire.ReportEvent{Kind: wire.ReportResourceJoin, Time: 15, Resource: 3})
		var ack wire.ReportAck
		if code, msg := postJSON(t, ts, "/v1/workflows/"+id+"/report", encodeReport(t, evs...), &ack); code != http.StatusOK || ack.Plan == nil {
			t.Fatalf("join report: HTTP %d %s %+v", code, msg, ack)
		}
		rest := drive.Replay(ack.Plan, math.Inf(1), evs)
		if code, msg := postJSON(t, ts, "/v1/workflows/"+id+"/report", encodeReport(t, rest...), &ack); code != http.StatusOK || !ack.Done {
			t.Fatalf("final report: HTTP %d %s %+v", code, msg, ack)
		}
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		enact  func(*testing.T, *httptest.Server, string)
		events int
	}{
		// submitted, started, decision, done
		{"analytic", encodeScenario(t, sc, "aheft", opts), nil, 4},
		// submitted, started, plan, decision, plan, done
		{"live", encodeLive(t, sc, "aheft", "acme", opts), enactLive, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour}
			srvA, tsA := openDurable(t, dir, cfg)
			// Hold the worker until the follower is subscribed, so the
			// followed stream is live from its second event on.
			release := make(chan struct{})
			srvA.execHook = func(*workflow) { <-release }
			sub, resp := submit(t, tsA, tc.body)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			stream, err := tsA.Client().Get(tsA.URL + "/v1/workflows/" + sub.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Body.Close()
			wf, _ := srvA.lookup(sub.ID)
			for subscribed := false; !subscribed; time.Sleep(time.Millisecond) {
				wf.mu.Lock()
				subscribed = len(wf.subs) > 0
				wf.mu.Unlock()
			}
			close(release)
			if tc.enact != nil {
				tc.enact(t, tsA, sub.ID)
			}
			followed, err := followEvents(stream.Body)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, tsA, sub.ID)
			replayed := getEvents(t, tsA, sub.ID)
			statusA := getStatusBytes(t, tsA, sub.ID)
			srvA.Crash()
			tsA.Close()

			srvB, tsB := openDurable(t, dir, cfg)
			defer func() {
				tsB.Close()
				srvB.Shutdown(t.Context())
			}()
			recovered := getEvents(t, tsB, sub.ID)
			statusB := getStatusBytes(t, tsB, sub.ID)

			if len(followed) != tc.events || followed[len(followed)-1].Kind != "done" {
				t.Fatalf("followed stream: %+v", followed)
			}
			if !reflect.DeepEqual(replayed, followed) {
				t.Fatalf("replayed stream differs from the followed one:\n%+v\n%+v", replayed, followed)
			}
			if !reflect.DeepEqual(recovered, followed) {
				t.Fatalf("recovered stream differs from the followed one:\n%+v\n%+v", recovered, followed)
			}
			if statusA != statusB {
				t.Fatalf("status changed across the restart:\n%s\n%s", statusA, statusB)
			}
			// The decision is kept once, in the status: the log has no entry
			// of its own for it.
			wfB, _ := srvB.lookup(sub.ID)
			kept := 0
			for _, rec := range wfB.events {
				if rec.decision != nil {
					kept++
				}
			}
			if len(wfB.st.Decisions) != 1 || kept != 0 || len(wfB.events) != tc.events-1 {
				t.Fatalf("decisions %d, decision entries left in the log %d of %d", len(wfB.st.Decisions), kept, len(wfB.events))
			}
		})
	}
}

// TestSettleCutsDecisionEvents pins what settle may drop from a terminal
// log: the decision events, and only when the status document can give
// every one of them back in place. Whatever the log, the stream served
// after settle is the stream that was recorded.
func TestSettleCutsDecisionEvents(t *testing.T) {
	ds := []wire.Decision{
		{Clock: 15, PoolSize: 4, OldMakespan: 80, NewMakespan: 76, Adopted: true, Trigger: "arrival", Arrived: 1},
		{Clock: 30, PoolSize: 4, OldMakespan: 76, NewMakespan: 78, Trigger: "variance", ElapsedMs: 0.25},
	}
	dec := func(d wire.Decision) wire.Event { return decisionEvent(&d) }
	whole := []wire.Event{
		{Kind: "submitted"}, {Kind: "started"}, {Kind: "plan", Generation: 1, Makespan: 80, Trigger: "initial"},
		dec(ds[0]), {Kind: "plan", Time: 15, Generation: 2, Makespan: 76, Trigger: "arrival"}, dec(ds[1]),
		{Kind: "done", Makespan: 76},
	}
	retimed := dec(ds[1])
	retimed.Time = 31
	for _, tc := range []struct {
		name   string
		log    []wire.Event
		status []wire.Decision
		kept   int
	}{
		{"ended normally", whole, ds, 5},
		{"no decisions", whole[:3], nil, 3},
		{"empty", nil, nil, 0},
		{"status lists fewer", whole, ds[:1], 7},
		{"status lists more", whole[:5], ds, 5},
		{"status lists another", whole, []wire.Decision{ds[1], ds[0]}, 7},
		{"a decision ends the log", whole[:6], ds, 6},
		{"event differs from its decision", append(append([]wire.Event(nil), whole[:5]...), retimed, whole[6]), ds, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]wire.Event, len(tc.log))
			for i, ev := range tc.log {
				ev.Seq, ev.Workflow = i, "wf-1"
				want[i] = ev
			}
			wf := &workflow{id: "wf-1", events: recordsOf(tc.log)}
			wf.settle(wire.Status{Decisions: tc.status})
			if len(wf.events) != tc.kept || cap(wf.events) != tc.kept {
				t.Errorf("kept %d log entries (cap %d), want %d", len(wf.events), cap(wf.events), tc.kept)
			}
			wf.mu.Lock()
			got := wf.eventsFrom(0)
			wf.mu.Unlock()
			if len(got) != len(want) {
				t.Fatalf("served %d events, want %d", len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if (g.Decision == nil) != (w.Decision == nil) || g.Decision != nil && *g.Decision != *w.Decision {
					t.Errorf("event %d: decision %+v, want %+v", i, g.Decision, w.Decision)
				}
				g.Decision, w.Decision = nil, nil
				if g != w {
					t.Errorf("event %d: %+v, want %+v", i, g, w)
				}
			}
		})
	}
}
