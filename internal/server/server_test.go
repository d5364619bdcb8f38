package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// encodeScenario wraps a scenario into an encoded submission body.
func encodeScenario(t testing.TB, sc *workload.Scenario, policy string, opts wire.Options) []byte {
	t.Helper()
	data, err := wire.EncodeSubmission(&wire.Submission{
		Policy:  policy,
		Options: opts,
		Graph:   sc.Graph,
		Comp:    sc.Table,
		Pool:    sc.Pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func submit(t testing.TB, ts *httptest.Server, body []byte) (wire.Submitted, *http.Response) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/workflows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub wire.Submitted
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	return sub, resp
}

func getStatus(t testing.TB, ts *httptest.Server, id string) wire.Status {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st wire.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls until the workflow reaches a terminal state.
func waitDone(t testing.TB, ts *httptest.Server, id string) wire.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("workflow %s did not finish", id)
	return wire.Status{}
}

func getMetrics(t testing.TB, ts *httptest.Server) MetricsDoc {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc MetricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// testContext is a context cancelled as t ends, as testing.T.Context is
// from Go 1.24 on; go.mod still admits Go 1.23.
func testContext(t testing.TB) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// TestSubmitSampleWorkflow reproduces the paper's worked example through
// the full network path: the Fig. 4 DAG submitted over the wire under
// AHEFT with the 0.05 tie window must finish with makespan 76, and under
// static HEFT with 80.
func TestSubmitSampleWorkflow(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	sc := workload.SampleScenario()

	sub, resp := submit(t, ts, encodeScenario(t, sc, "aheft", wire.Options{TieWindow: 0.05}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st := waitDone(t, ts, sub.ID)
	if st.State != StateDone || st.Makespan != 76 || st.InitialMakespan != 80 {
		t.Fatalf("aheft sample: state=%s makespan=%g initial=%g", st.State, st.Makespan, st.InitialMakespan)
	}
	if st.Adoptions == 0 || len(st.Decisions) == 0 {
		t.Fatalf("aheft sample adopted no reschedule: %+v", st)
	}
	if st.Policy != "aheft" || st.Jobs != 10 || st.Resources != 4 {
		t.Fatalf("status fields wrong: %+v", st)
	}

	sub2, _ := submit(t, ts, encodeScenario(t, sc, "heft", wire.Options{}))
	if st2 := waitDone(t, ts, sub2.ID); st2.Makespan != 80 {
		t.Fatalf("heft sample makespan %g, want 80", st2.Makespan)
	}
}

// TestAnalyticAdoptionsCountedByTrigger: an analytic run's adopted
// reschedules are counted under their trigger as a live run's are, so
// reschedules is the sum of the by-trigger counters. The sample adopts one
// arrival reschedule at t = 15.
func TestAnalyticAdoptionsCountedByTrigger(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 1})
	sub, resp := submit(t, ts, encodeScenario(t, workload.SampleScenario(), "aheft", wire.Options{TieWindow: 0.05}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitDone(t, ts, sub.ID)
	m := srv.MetricsSnapshot()
	byTrigger := m.ReschedulesArrival + m.ReschedulesVariance + m.ReschedulesDeparture + m.ReschedulesContention
	if m.Reschedules != 1 || m.ReschedulesArrival != 1 || byTrigger != m.Reschedules {
		t.Fatalf("reschedules=%d, by trigger %d (arrival %d)", m.Reschedules, byTrigger, m.ReschedulesArrival)
	}
}

// TestEveryRegisteredPolicyRuns submits the same workflow under each
// registry policy: the daemon is policy-agnostic because the analytic
// engine drives just-in-time policies too.
func TestEveryRegisteredPolicyRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := workload.SampleScenario()
	for _, pol := range []string{"heft", "aheft", "minmin", "maxmin", "sufferage"} {
		sub, resp := submit(t, ts, encodeScenario(t, sc, pol, wire.Options{}))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: HTTP %d", pol, resp.StatusCode)
		}
		if st := waitDone(t, ts, sub.ID); st.State != StateDone || st.Makespan <= 0 {
			t.Fatalf("%s: %+v", pol, st)
		}
	}
}

// TestEventStream follows a workflow over SSE and checks the stream is
// complete and gap-free: submitted, started, one event per rescheduling
// decision, done — with dense Seq numbers and a zero drop counter.
func TestEventStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	sc := workload.SampleScenario()
	sub, _ := submit(t, ts, encodeScenario(t, sc, "aheft", wire.Options{TieWindow: 0.05}))
	st := waitDone(t, ts, sub.ID)

	resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events []wire.Event
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev wire.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", data, err)
			}
			events = append(events, ev)
		}
	}
	if len(events) != st.Events {
		t.Fatalf("stream has %d events, status reports %d", len(events), st.Events)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("seq gap at %d: %+v", i, ev)
		}
		if ev.Workflow != sub.ID {
			t.Fatalf("event for wrong workflow: %+v", ev)
		}
	}
	if events[0].Kind != "submitted" || events[1].Kind != "started" {
		t.Fatalf("stream head: %+v", events[:2])
	}
	last := events[len(events)-1]
	if last.Kind != "done" || last.Makespan != 76 {
		t.Fatalf("stream tail: %+v", last)
	}
	decisions := 0
	for _, ev := range events {
		if ev.Kind == "decision" {
			if ev.Decision == nil {
				t.Fatalf("decision event without payload: %+v", ev)
			}
			decisions++
		}
	}
	if decisions != len(st.Decisions) {
		t.Fatalf("stream has %d decisions, status %d", decisions, len(st.Decisions))
	}
	if m := getMetrics(t, ts); m.EventsDropped != 0 {
		t.Fatalf("events dropped: %d", m.EventsDropped)
	}
}

// TestLiveEventStream subscribes before the workflow finishes and must
// still observe the complete stream (replay + live tail).
func TestLiveEventStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	r := rng.New(11)
	sc, err := workload.LayeredScenario(workload.LayeredParams{Jobs: 3000, Width: 60, FanIn: 3, CCR: 1, Beta: 0.5},
		workload.GridParams{InitialResources: 8, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	body := encodeScenario(t, sc, "aheft", wire.Options{})
	sub, _ := submit(t, ts, body)

	resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var kinds []string
	lastSeq := -1
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		if data, ok := strings.CutPrefix(scanner.Text(), "data: "); ok {
			var ev wire.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Seq != lastSeq+1 {
				t.Fatalf("seq gap: %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			kinds = append(kinds, ev.Kind)
		}
	}
	if len(kinds) < 3 || kinds[len(kinds)-1] != "done" {
		t.Fatalf("incomplete live stream: %v", kinds)
	}
}

// TestRejections covers the 400 family: malformed body, oversized body,
// unknown policy, and unknown workflow lookups.
func TestRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 20, Limits: wire.Limits{MaxJobs: 50}})
	sc := workload.SampleScenario()

	if _, resp := submit(t, ts, []byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d", resp.StatusCode)
	}
	if _, resp := submit(t, ts, encodeScenario(t, sc, "no-such-policy", wire.Options{})); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown policy: HTTP %d", resp.StatusCode)
	}
	if _, resp := submit(t, ts, bytes.Repeat([]byte("x"), (1<<20)+1)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d", resp.StatusCode)
	}
	r := rng.New(2)
	big, err := workload.RandomScenario(workload.RandomParams{Jobs: 60, CCR: 1, OutDegree: 0.2, Beta: 0.5},
		workload.GridParams{InitialResources: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, resp := submit(t, ts, encodeScenario(t, big, "aheft", wire.Options{})); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over job limit: HTTP %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/workflows/nope", "/v1/workflows/nope/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
	}
	if m := getMetrics(t, ts); m.RejectedInvalid != 4 {
		t.Fatalf("rejected_invalid = %d, want 4", m.RejectedInvalid)
	}
}

// TestBackpressure holds the single worker in place (via the exec hook),
// fills its depth-1 queue, and checks that the overflow submission gets
// 429 + Retry-After while everything accepted still completes.
func TestBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 1})
	release := make(chan struct{})
	var hookOnce sync.Once
	srv.execHook = func(*workflow) {
		// Only the first execution blocks; the queued one runs free
		// after release.
		hookOnce.Do(func() { <-release })
	}
	body := encodeScenario(t, workload.SampleScenario(), "aheft", wire.Options{})

	// First workflow occupies the worker, second fills the depth-1
	// queue, third must bounce.
	first, resp := submit(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: HTTP %d", resp.StatusCode)
	}
	var queued wire.Submitted
	for i := 0; i < 100; i++ {
		// The worker may not have dequeued the first workflow yet, so
		// the queue slot can be momentarily occupied by it; retry until
		// a submission sticks in the queue while the hook blocks.
		sub, resp := submit(t, ts, body)
		if resp.StatusCode == http.StatusAccepted {
			queued = sub
			break
		}
		time.Sleep(time.Millisecond)
	}
	if queued.ID == "" {
		t.Fatal("no submission queued behind the blocked worker")
	}
	_, resp = submit(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
	// A rejected workflow must not leave a dangling record: everything
	// accepted completes, the rejection is counted.
	if st := waitDone(t, ts, first.ID); st.State != StateDone {
		t.Fatalf("first workflow: %+v", st)
	}
	if st := waitDone(t, ts, queued.ID); st.State != StateDone {
		t.Fatalf("queued workflow: %+v", st)
	}
	m := getMetrics(t, ts)
	if m.RejectedFull == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Inflight != 0 {
		t.Fatalf("inflight gauge stuck at %d", m.Inflight)
	}
}

// TestShutdownDrain submits a burst, then drains: every accepted
// workflow must finish, and post-drain submissions must get 503.
func TestShutdownDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 4, QueueDepth: 64})
	body := encodeScenario(t, workload.SampleScenario(), "aheft", wire.Options{})
	var ids []string
	for i := 0; i < 40; i++ {
		sub, resp := submit(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, sub.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		if st := getStatus(t, ts, id); st.State != StateDone {
			t.Fatalf("workflow %s not drained: %s", id, st.State)
		}
	}
	if _, resp := submit(t, ts, body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: HTTP %d", resp.StatusCode)
	}
	m := getMetrics(t, ts)
	if m.Completed != 40 || m.Inflight != 0 || m.EventsDropped != 0 {
		t.Fatalf("post-drain metrics: %+v", m)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestRetentionEviction: terminal workflow records beyond MaxRetained
// are evicted oldest-first (404 afterwards), bounding daemon memory,
// while recent records stay queryable.
func TestRetentionEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, MaxRetained: 8})
	body := encodeScenario(t, workload.SampleScenario(), "heft", wire.Options{})
	var ids []string
	for i := 0; i < 20; i++ {
		sub, resp := submit(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, sub.ID)
	}
	// One shard finishes in submission order, so once the last workflow
	// is done, exactly the first 12 records get evicted. Status flips to
	// done an instant before the worker's retire() runs, so wait on the
	// eviction counter rather than the terminal state.
	if st := waitDone(t, ts, ids[19]); st.State != StateDone {
		t.Fatalf("last workflow: %+v", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts).Evicted < 12 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	for _, id := range ids[:12] {
		resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("evicted %s: HTTP %d, want 404", id, resp.StatusCode)
		}
	}
	for _, id := range ids[12:] {
		if st := getStatus(t, ts, id); st.State != StateDone {
			t.Fatalf("retained %s: %+v", id, st)
		}
	}
	m := getMetrics(t, ts)
	if m.Evicted != 12 || m.Completed != 20 {
		t.Fatalf("evicted=%d completed=%d, want 12/20", m.Evicted, m.Completed)
	}
}

// TestShardRouting checks the consistent-hash router is deterministic
// and reasonably balanced over many IDs.
func TestShardRouting(t *testing.T) {
	const shards = 4
	counts := make([]int, shards)
	for i := 0; i < 4000; i++ {
		id := fmt.Sprintf("wf-%08d", i)
		sh := shardFor(id, shards)
		if sh != shardFor(id, shards) {
			t.Fatal("routing not deterministic")
		}
		if sh < 0 || sh >= shards {
			t.Fatalf("shard %d out of range", sh)
		}
		counts[sh]++
	}
	for i, c := range counts {
		if c < 600 || c > 1400 {
			t.Fatalf("shard %d badly balanced: %v", i, counts)
		}
	}
	// Consistent-hash property: growing 4 → 5 shards moves only a
	// fraction of the keyspace (modulo hashing would move ~80%).
	moved := 0
	for i := 0; i < 4000; i++ {
		id := fmt.Sprintf("wf-%08d", i)
		if shardFor(id, shards) != shardFor(id, shards+1) {
			moved++
		}
	}
	if moved > 4000/3 {
		t.Fatalf("growing the ring moved %d/4000 ids", moved)
	}
}
