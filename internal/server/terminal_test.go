package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aheft/internal/drive"
	"aheft/internal/planner"
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

// blast24Bodies pre-encodes n live submissions of the 50-job BLAST shape
// live_feedback_wal runs.
func blast24Bodies(t testing.TB, n int) [][]byte {
	t.Helper()
	r := rng.New(0xB1A57)
	out := make([][]byte, n)
	for i := range out {
		sc, err := workload.BlastScenario(workload.AppParams{Parallelism: 24, CCR: 1, Beta: 0.5},
			workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4}, r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = encodeLive(t, sc, "aheft", "acme", wire.Options{})
	}
	return out
}

// enactToDone reports a live workflow's plan, as planned, in four
// batches, the last of which ends the run.
func enactToDone(t testing.TB, srv *Server, id string) error {
	wf, _ := srv.lookup(id)
	wf.mu.Lock()
	plan := wf.view().plan
	wf.mu.Unlock()
	evs := drive.Replay(plan, math.Inf(1), nil)
	for i := range 4 {
		batch := evs[i*len(evs)/4 : (i+1)*len(evs)/4]
		if err := srv.Apply(wire.RecReport, wire.RecBody{Workflow: id, Body: encodeReport(t, batch...)}); err != nil {
			return err
		}
	}
	return nil
}

// TestTerminalRecordBudget bounds what the daemon keeps per finished
// workflow. It retains up to Config.MaxRetained (16 384) terminal records,
// so a busy daemon's resident memory is this figure times that — a
// record that grows by a kilobyte costs tens of megabytes of RSS. A live
// workflow's record also holds its last plan.
func TestTerminalRecordBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 5000 workflows")
	}
	for _, tc := range []struct {
		name          string
		bodies        [][]byte
		enact         func(testing.TB, *Server, string) error
		n, budget     int
		wantDecisions bool
	}{
		{"analytic", analyticBodies(t, 8), nil, 4000, 700, true},
		{"live", blast24Bodies(t, 8), enactToDone, 1000, 1300, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{Shards: 2, QueueDepth: -1})
			defer srv.Shutdown(testContext(t))
			// Apply returns once the worker started the workflow, so each
			// shard's workflows are applied from a goroutine of their own.
			run := func(from, to int) {
				var wg sync.WaitGroup
				for sh := range srv.shards {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := from; i < to; i++ {
							id := fmt.Sprintf("wf-%08d", i)
							if shardFor(id, len(srv.shards)) != sh {
								continue
							}
							err := srv.Apply(wire.RecSubmission, wire.RecBody{Workflow: id, Body: tc.bodies[i%len(tc.bodies)]})
							if err == nil && tc.enact != nil {
								err = tc.enact(t, srv, id)
							}
							if err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
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
			// scratch, the registry's first buckets, tenant histories)
			// before the baseline.
			run(1, 501)
			before := heap()
			run(501, 501+tc.n)
			after := heap()

			decisions := 0
			for i := 501; i < 501+tc.n; i++ {
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
			if tc.wantDecisions && decisions == 0 {
				t.Fatal("no workflow made a decision")
			}
			per := float64(int64(after)-int64(before)) / float64(tc.n)
			t.Logf("%.0f B retained per terminal workflow (%.1f decisions each)", per, float64(decisions)/float64(tc.n))
			if per > float64(tc.budget) {
				t.Fatalf("a terminal %s workflow retains %.0f B, budget %d", tc.name, per, tc.budget)
			}
		})
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
				srvB.Shutdown(testContext(t))
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
			// The decision is kept once, in the status: the record's log has
			// no entry of its own for it, and the served log puts it back.
			wfB, _ := srvB.lookup(sub.ID)
			wfB.mu.Lock()
			served, kept := wfB.eventsFrom(0), wfB.view().events
			wfB.mu.Unlock()
			decisions := 0
			for _, rec := range kept {
				if rec.decision != nil {
					decisions++
				}
			}
			st := wfB.status()
			if len(st.Decisions) != 1 || decisions != 0 || len(kept) != tc.events-1 || !reflect.DeepEqual(served, followed) {
				t.Fatalf("decisions %d, decision entries left in the log %d of %d, served %+v",
					len(st.Decisions), decisions, len(kept), served)
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
			wf := &workflow{id: "wf-1", running: &running{entry: entry{events: recordsOf(tc.log)}}}
			wf.settle(wire.Status{Decisions: tc.status})
			if st := wf.status(); !reflect.DeepEqual(st.Decisions, tc.status) {
				t.Errorf("status decisions %+v, want %+v", st.Decisions, tc.status)
			}
			wf.mu.Lock()
			got, kept := wf.eventsFrom(0), len(wf.view().events)
			wf.mu.Unlock()
			if kept != tc.kept {
				t.Errorf("kept %d log entries, want %d", kept, tc.kept)
			}
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

// TestWireDecision: the one planner → wire converter of a decision maps an
// +Inf price (a plan a departure made infeasible) to the -1 sentinel,
// names the trigger and keeps the telemetry the event stream carries.
func TestWireDecision(t *testing.T) {
	for _, tc := range []struct {
		d    planner.Decision
		want wire.Decision
	}{
		{
			planner.Decision{Clock: 1, PoolSize: 3, OldMakespan: 80, NewMakespan: 76, Adopted: true,
				Trigger: planner.TriggerArrival, ArrivedCount: 1, ElapsedMs: 0.5, RankMs: 0.25, PlaceMs: 0.125},
			wire.Decision{Clock: 1, PoolSize: 3, OldMakespan: 80, NewMakespan: 76, Adopted: true,
				Trigger: "arrival", Arrived: 1, ElapsedMs: 0.5, RankMs: 0.25, PlaceMs: 0.125},
		},
		{
			planner.Decision{Clock: 2, PoolSize: 2, OldMakespan: math.Inf(1), NewMakespan: 90, Adopted: true, Trigger: planner.TriggerDeparture},
			wire.Decision{Clock: 2, PoolSize: 2, OldMakespan: -1, NewMakespan: 90, Adopted: true, Trigger: "departure"},
		},
		{
			planner.Decision{Clock: 3, PoolSize: 4, OldMakespan: 50, NewMakespan: 55, Trigger: planner.TriggerVariance, JobsFinished: 2},
			wire.Decision{Clock: 3, PoolSize: 4, OldMakespan: 50, NewMakespan: 55, Trigger: "variance", JobsFinished: 2},
		},
		{
			planner.Decision{Clock: 4, PoolSize: 4, OldMakespan: 60, NewMakespan: 58, Trigger: planner.TriggerContention},
			wire.Decision{Clock: 4, PoolSize: 4, OldMakespan: 60, NewMakespan: 58, Trigger: "contention"},
		},
	} {
		if got := wireDecision(tc.d); got != tc.want {
			t.Errorf("wireDecision(%+v) = %+v, want %+v", tc.d, got, tc.want)
		}
	}
}

// recordGen draws the values a terminal record holds from fuzz input:
// every field zero, small or any bit pattern, strings from the record's
// word table or arbitrary bytes. Floats are never NaN or ±Inf, which no
// served document can carry.
type recordGen struct{ b []byte }

func (g *recordGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *recordGen) bits() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

func (g *recordGen) int() int {
	switch g.byte() % 4 {
	case 0:
		return 0
	case 1:
		return int(int8(g.byte()))
	}
	return int(g.bits())
}

func (g *recordGen) float() float64 {
	switch g.byte() % 4 {
	case 0:
		return 0
	case 1:
		if v := int8(g.byte()); v != 0 {
			return float64(v) / 4
		}
		return math.Copysign(0, -1)
	}
	if f := math.Float64frombits(g.bits()); !math.IsNaN(f) && !math.IsInf(f, 0) {
		return f
	}
	return math.Copysign(0, -1)
}

func (g *recordGen) str() string {
	switch g.byte() % 3 {
	case 0:
		return ""
	case 1:
		return recordWords[int(g.byte())%len(recordWords)]
	}
	n := min(int(g.byte()%24), len(g.b))
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

func (g *recordGen) decision() wire.Decision {
	return wire.Decision{
		Clock: g.float(), PoolSize: g.int(), OldMakespan: g.float(), NewMakespan: g.float(),
		Adopted: g.byte()%2 == 0, JobsFinished: g.int(), Trigger: g.str(), Arrived: g.int(),
		ElapsedMs: g.float(), RankMs: g.float(), PlaceMs: g.float(),
	}
}

func (g *recordGen) status(id string) wire.Status {
	st := wire.Status{
		ID: id, Name: g.str(), State: g.str(), Mode: g.str(), Tenant: g.str(), Grid: g.str(),
		Generation: g.int(), Reports: g.int(), Policy: g.str(), Shard: g.int(), Jobs: g.int(),
		Resources: g.int(), Events: g.int(), QueueMs: g.float(), ComputeMs: g.float(),
		Makespan: g.float(), InitialMakespan: g.float(), Improvement: g.float(),
		Adoptions: g.int(), Error: g.str(),
	}
	if g.byte()%4 == 0 {
		st.ID = g.str()
	}
	if c := g.byte() % 4; c > 0 {
		st.Decisions = make([]wire.Decision, c-1)
		for i := range st.Decisions {
			st.Decisions[i] = g.decision()
		}
	}
	return st
}

// log draws a running workflow's log: mostly the events of ds in order
// among others, so settle may cut them, and now and then a stray
// decision.
func (g *recordGen) log(ds []wire.Decision) []eventRec {
	var log []eventRec
	k := 0
	for range g.byte() % 10 {
		switch c := g.byte() % 8; {
		case c < 3 && k < len(ds):
			log = append(log, recordOf(decisionEvent(&ds[k])))
			k++
		case c == 3:
			d := g.decision()
			log = append(log, recordOf(decisionEvent(&d)))
		default:
			rec := eventRec{kind: g.str(), time: g.float(), makespan: g.float(), generation: g.int(), note: g.str()}
			if g.byte()%8 == 0 {
				d := g.decision()
				rec.decision = &d
			}
			log = append(log, rec)
		}
	}
	return log
}

func (g *recordGen) plan(id string) *wire.Plan {
	if g.byte()%3 == 0 {
		return nil
	}
	p := &wire.Plan{Workflow: id, Generation: g.int(), Trigger: g.str(), Makespan: g.float()}
	if g.byte()%4 == 0 {
		p.Workflow = g.str()
	}
	if c := g.byte() % 6; c > 0 {
		p.Assignments = make([]wire.Assignment, c-1)
		for i := range p.Assignments {
			p.Assignments[i] = wire.Assignment{Job: g.int(), Resource: g.int(), Start: g.float(), Finish: g.float()}
		}
	}
	return p
}

// FuzzTerminalRecord: a terminal workflow serves what its running entry
// served. Whatever status, log and plan settle seals, the decoded record
// gives back the same status and plan, and its log — decision events cut
// or not — the same event stream, so the status, SSE, plan and journal
// bytes are those of the entry it replaced.
func FuzzTerminalRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	seq := make([]byte, 512)
	for i := range seq {
		seq[i] = byte(i * 7)
	}
	f.Add(seq)
	f.Add([]byte("\x02\x03wf-00000042\x01\x03\x01\x09\x00\x00\x00\x01\x02\x01\x05\x02\x07\x08\x06\x01\x00\x02\x03\x03\x05\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &recordGen{b: data}
		id := g.str()
		st := g.status(id)
		log := g.log(st.Decisions)
		plan := g.plan(id)
		want := entry{st: st, events: log, plan: plan}
		wantEvents := want.wireEvents(id, 0)

		wf := &workflow{id: id, running: &running{entry: want}}
		wf.settle(st)
		if len(wf.rec) != cap(wf.rec) {
			t.Fatalf("record of %d bytes has capacity %d", len(wf.rec), cap(wf.rec))
		}
		if got := wf.status(); !reflect.DeepEqual(got, st) {
			t.Fatalf("status\n%+v\nwant\n%+v", got, st)
		}
		wf.mu.Lock()
		got := wf.view()
		gotEvents := wf.eventsFrom(0)
		wf.mu.Unlock()
		if !reflect.DeepEqual(got.plan, plan) {
			t.Fatalf("plan\n%+v\nwant\n%+v", got.plan, plan)
		}
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Fatalf("events\n%+v\nwant\n%+v", gotEvents, wantEvents)
		}
		// DeepEqual takes −0 for 0; the served bytes do not.
		gotDoc, err1 := json.Marshal(walTerminal{ID: id, Status: wf.status(), Plan: got.plan, Events: gotEvents})
		wantDoc, err2 := json.Marshal(walTerminal{ID: id, Status: st, Plan: plan, Events: wantEvents})
		if err1 != nil || err2 != nil || !bytes.Equal(gotDoc, wantDoc) {
			t.Fatalf("served\n%s\nwant\n%s (%v, %v)", gotDoc, wantDoc, err1, err2)
		}
		if cut := cutDecisions(log, st.Decisions); cut && len(got.events) != len(log)-len(st.Decisions) || !cut && len(got.events) != len(log) {
			t.Fatalf("kept %d of %d log entries (cut %v, %d decisions)", len(got.events), len(log), cut, len(st.Decisions))
		}
	})
}
