package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"aheft/internal/drive"
	"aheft/internal/durable"
	"aheft/internal/rng"
	"aheft/internal/server"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

func encodeSub(t testing.TB, sc *workload.Scenario, mode, policy, tenant string, opts wire.Options) []byte {
	t.Helper()
	body, err := wire.EncodeSubmission(&wire.Submission{
		Mode: mode, Tenant: tenant, Policy: policy, Options: opts,
		Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postJSON(t testing.TB, ts *httptest.Server, path string, body []byte, v any) int {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func waitTerminal(t testing.TB, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st wire.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && (st.State == server.StateDone || st.State == server.StateFailed) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("workflow %s never finished", id)
}

// faithfulEvents builds the report events of a faithful execution of
// plan up to clock.
func faithfulEvents(plan *wire.Plan, clock float64) []wire.ReportEvent {
	var evs []wire.ReportEvent
	for _, a := range plan.Assignments {
		if a.Start < clock {
			evs = append(evs, wire.ReportEvent{Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource})
		}
		if a.Finish <= clock {
			evs = append(evs, wire.ReportEvent{Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Duration: a.Finish - a.Start})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Kind == wire.ReportJobStarted && evs[j].Kind != wire.ReportJobStarted
	})
	return evs
}

// recordMixedRun drives analytic, live (including a duplicate report
// batch), and shared-grid traffic through a recording daemon and drains
// it cleanly, leaving a full-coverage recording in dir.
func recordMixedRun(t *testing.T, dir string) {
	t.Helper()
	srv, err := server.Open(server.Config{Shards: 2, QueueDepth: 256, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Analytic: the worked example under two policies.
	sample := workload.SampleScenario()
	for _, policy := range []string{"aheft", "heft"} {
		var sub wire.Submitted
		if code := postJSON(t, ts, "/v1/workflows", encodeSub(t, sample, "", policy, "", wire.Options{TieWindow: 0.05}), &sub); code != http.StatusAccepted {
			t.Fatalf("analytic submit (%s): HTTP %d", policy, code)
		}
		waitTerminal(t, ts, sub.ID)
	}

	// Live: faithful enactment to t=15, a resource join that reschedules,
	// the SAME batch posted again (a duplicate the tracker must re-ack
	// idempotently — it consumes a worker turn and is recorded), then the
	// tail to completion.
	var sub wire.Submitted
	if code := postJSON(t, ts, "/v1/workflows", encodeSub(t, sample, wire.ModeLive, "aheft", "acme", wire.Options{TieWindow: 0.05}), &sub); code != http.StatusAccepted {
		t.Fatalf("live submit: HTTP %d", code)
	}
	var plan wire.Plan
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + sub.ID + "/plan")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&plan)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("no initial plan for %s", sub.ID)
		}
		time.Sleep(time.Millisecond)
	}
	evs := append(faithfulEvents(&plan, 15), wire.ReportEvent{Kind: wire.ReportResourceJoin, Time: 15, Resource: 3})
	batch, err := wire.EncodeReport(&wire.Report{Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.ReportAck
	if code := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/report", batch, &ack); code != http.StatusOK {
		t.Fatalf("report: HTTP %d", code)
	}
	if !ack.Rescheduled || ack.Plan == nil {
		t.Fatalf("join report did not reschedule: %+v", ack)
	}
	if code := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/report", batch, nil); code != http.StatusOK {
		t.Fatalf("duplicate report: HTTP %d", code)
	}
	started, finished := map[int]bool{}, map[int]bool{}
	for _, ev := range evs {
		switch ev.Kind {
		case wire.ReportJobStarted:
			started[ev.Job] = true
		case wire.ReportJobFinished:
			finished[ev.Job] = true
		}
	}
	var tail []wire.ReportEvent
	for _, a := range ack.Plan.Assignments {
		if finished[a.Job] {
			continue
		}
		if !started[a.Job] {
			tail = append(tail, wire.ReportEvent{Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource})
		}
		tail = append(tail, wire.ReportEvent{Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Duration: a.Finish - a.Start})
	}
	sort.SliceStable(tail, func(i, j int) bool {
		if tail[i].Time != tail[j].Time {
			return tail[i].Time < tail[j].Time
		}
		return tail[i].Kind == wire.ReportJobStarted && tail[j].Kind != wire.ReportJobStarted
	})
	tailBody, err := wire.EncodeReport(&wire.Report{Events: tail})
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts, "/v1/workflows/"+sub.ID+"/report", tailBody, nil); code != http.StatusOK {
		t.Fatalf("tail report: HTTP %d", code)
	}
	waitTerminal(t, ts, sub.ID)

	// Shared grid: two tenants co-scheduled on one registered grid, with
	// noise and churn — contention triggers and cross-workflow records.
	r := rng.New(0x5eed)
	gp := workload.GridParams{InitialResources: 4, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 2}
	bl, err := workload.BlastScenario(workload.AppParams{Parallelism: 6, CCR: 1, Beta: 0.5}, gp, r)
	if err != nil {
		t.Fatal(err)
	}
	wn, err := workload.Wien2kScenario(workload.AppParams{Parallelism: 6, CCR: 1, Beta: 0.5}, gp, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drive.Run(context.Background(), drive.Config{
		Client: drive.Client{Base: ts.URL, HTTP: ts.Client()},
		Grid:   "rec-grid", Pool: bl.Pool,
		Noise: 0.15, Churn: 0.2, Seed: 41,
	}, []drive.Tenant{
		{Name: "blast", Scenario: bl, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2}},
		{Name: "wien2k", Scenario: wn, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2}},
	}); err != nil {
		t.Fatalf("shared-grid run: %v", err)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestReplayMixedRunIdentical is the acceptance test across traffic
// kinds: a recording covering analytic, live (with a duplicate report),
// and shared-grid traffic replays bit-identically, and a second replay of
// the same recording produces an identical canonical digest.
func TestReplayMixedRunIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("record/replay acceptance test skipped in -short mode")
	}
	dir := t.TempDir()
	recordMixedRun(t, dir)

	res, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical() {
		t.Fatalf("replay diverged (%d mismatches over %d outputs):\n%s",
			len(res.Divergences), res.Outputs, strings.Join(res.Divergences, "\n"))
	}
	if res.Shards != 2 || res.Inputs == 0 || res.Outputs == 0 {
		t.Fatalf("replay coverage: %+v", res)
	}
	// The recording must actually contain every record family the mixed
	// run was built to produce.
	kinds := map[string]int{}
	for i := 0; i < res.Shards; i++ {
		records, torn, err := durable.ReadLog(filepath.Join(dir, wire.RecordName(i)))
		if err != nil || torn {
			t.Fatalf("re-read shard %d: torn=%v err=%v", i, torn, err)
		}
		for _, r := range records {
			kinds[r.Kind]++
		}
	}
	for _, kind := range []string{wire.RecBegin, wire.RecGrid, wire.RecSubmission, wire.RecReport,
		wire.RecDecision, wire.RecPlan, wire.RecDone, wire.RecEnd} {
		if kinds[kind] == 0 {
			t.Fatalf("recording has no %s records: %v", kind, kinds)
		}
	}

	res2, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Identical() {
		t.Fatalf("second replay diverged:\n%s", strings.Join(res2.Divergences, "\n"))
	}
	if strings.Join(res.Digest, "\n") != strings.Join(res2.Digest, "\n") {
		t.Fatal("two replays of one recording produced different digests")
	}
}

// TestReplayConcurrentDriveIdentical is the replay gate under
// concurrency: 16 live BLAST/WIEN2K workflows driven at once (20% runtime
// noise, 30% churned resource joins, class-scoped histories, so each
// workflow plans with what its concurrent siblings taught the daemon)
// against a 4-shard recording daemon, which then drains cleanly. Two
// replays of the recording must each reproduce every decision, plan
// generation and terminal outcome, and write byte-equal digests.
func TestReplayConcurrentDriveIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("record/replay acceptance test skipped in -short mode")
	}
	dir := t.TempDir()
	srv, err := server.Open(server.Config{Shards: 4, QueueDepth: 256, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const runs = 16
	r := rng.New(0xc0dc)
	gp := workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4}
	app := workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}
	tenants := make([]drive.Tenant, runs)
	for i := range tenants {
		class, gen := "blast", workload.BlastScenario
		if i%2 == 1 {
			class, gen = "wien2k", workload.Wien2kScenario
		}
		sc, err := gen(app, gp, r)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = drive.Tenant{Name: fmt.Sprintf("%s-%d", class, i), History: class, Scenario: sc,
			Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2}}
	}
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for i, tn := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := drive.Run(context.Background(), drive.Config{
				Client: drive.Client{Base: ts.URL, HTTP: ts.Client()},
				Noise:  0.2, Churn: 0.3, Seed: uint64(i) + 1,
			}, []drive.Tenant{tn})
			if err != nil {
				errs <- fmt.Errorf("%s: %w", tn.Name, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if m := srv.MetricsSnapshot(); m.EventsDropped != 0 || m.Completed != runs || m.Failed != 0 || m.Reschedules == 0 {
		t.Fatalf("recorded run: events_dropped=%d completed=%d failed=%d reschedules=%d",
			m.EventsDropped, m.Completed, m.Failed, m.Reschedules)
	}

	var digests [2]string
	for i := range digests {
		res, err := Run(dir, Options{Timeout: 5 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Identical() {
			t.Fatalf("replay %d diverged (%d mismatches over %d outputs):\n%s",
				i+1, len(res.Divergences), res.Outputs, strings.Join(res.Divergences, "\n"))
		}
		if res.Shards != 4 || res.Outputs == 0 {
			t.Fatalf("replay %d coverage: %d shards, %d outputs", i+1, res.Shards, res.Outputs)
		}
		digests[i] = strings.Join(res.Digest, "\n") + "\n"
	}
	if digests[0] != digests[1] {
		t.Fatal("two replays of one recording wrote different digests")
	}
}

// recordSmallRun leaves a minimal clean recording (one analytic
// workflow) in dir, for the adversarial mutations below.
func recordSmallRun(t *testing.T, dir string) {
	t.Helper()
	srv, err := server.Open(server.Config{Shards: 1, QueueDepth: 16, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var sub wire.Submitted
	if code := postJSON(t, ts, "/v1/workflows", encodeSub(t, workload.SampleScenario(), "", "aheft", "", wire.Options{}), &sub); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitTerminal(t, ts, sub.ID)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestReplayRefusesTornTail: a partial frame at the stream tail (daemon
// killed mid-append) must refuse with a diagnostic, never replay the
// prefix silently.
func TestReplayRefusesTornTail(t *testing.T) {
	dir := t.TempDir()
	recordSmallRun(t, dir)
	path := filepath.Join(dir, wire.RecordName(0))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header promising 80 payload bytes, with 3 present.
	if _, err := f.Write([]byte{0, 0, 0, 80, 0xca, 0xfe, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := Run(dir, Options{}); err == nil || !strings.Contains(err.Error(), "torn tail") {
		t.Fatalf("torn recording: err = %v, want torn-tail diagnostic", err)
	}
}

// rewriteStream replaces the recording at path with edit's version of its
// records.
func rewriteStream(t *testing.T, path string, edit func([]*wire.WALRecord) []*wire.WALRecord) {
	t.Helper()
	records, torn, err := durable.ReadLog(path)
	if err != nil || torn {
		t.Fatalf("re-read: torn=%v err=%v", torn, err)
	}
	l, err := durable.CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range edit(records) {
		if err := l.Append(r.Kind, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayAcceptsRetiredHeaderField: recordings made while the daemon had
// an incremental reschedule path carry its max_cone_frac in the header. The
// path is gone and its plans were the full pass's, so such a stream must
// load — the field skipped, not rejected — and replay identically.
func TestReplayAcceptsRetiredHeaderField(t *testing.T) {
	dir := t.TempDir()
	recordSmallRun(t, dir)
	rewriteStream(t, filepath.Join(dir, wire.RecordName(0)), func(records []*wire.WALRecord) []*wire.WALRecord {
		var hdr map[string]any
		if err := json.Unmarshal(records[0].Data, &hdr); err != nil {
			t.Fatal(err)
		}
		hdr["max_cone_frac"] = 0.5
		data, err := json.Marshal(hdr)
		if err != nil {
			t.Fatal(err)
		}
		records[0] = &wire.WALRecord{Kind: records[0].Kind, Data: data}
		return records
	})
	res, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical() || res.Outputs == 0 {
		t.Fatalf("replay of an old-header recording: %d outputs, divergences:\n%s", res.Outputs, strings.Join(res.Divergences, "\n"))
	}
}

// TestReplayRefusesMissingTrailer: a stream without its rec-end trailer
// (recording still in progress, or the daemon died before finalizing)
// must refuse with a diagnostic.
func TestReplayRefusesMissingTrailer(t *testing.T) {
	dir := t.TempDir()
	recordSmallRun(t, dir)
	// The stream minus the trailer is byte-wise what a stream looks like
	// while the daemon is still running.
	rewriteStream(t, filepath.Join(dir, wire.RecordName(0)), func(records []*wire.WALRecord) []*wire.WALRecord {
		if records[len(records)-1].Kind != wire.RecEnd {
			t.Fatalf("clean recording does not end with %s", wire.RecEnd)
		}
		return records[:len(records)-1]
	})

	if _, err := Run(dir, Options{}); err == nil || !strings.Contains(err.Error(), "no rec-end trailer") {
		t.Fatalf("trailer-less recording: err = %v, want missing-trailer diagnostic", err)
	}
}

// TestReplayRefusesMidDrainRecording: a force-cancelled drain (live
// workflow cut mid-flight) finalizes with an unclean trailer, and
// replay must refuse it — the tail depends on kill timing and cannot
// reproduce.
func TestReplayRefusesMidDrainRecording(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(server.Config{Shards: 1, QueueDepth: 16, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	var sub wire.Submitted
	if code := postJSON(t, ts, "/v1/workflows", encodeSub(t, workload.SampleScenario(), wire.ModeLive, "aheft", "acme", wire.Options{}), &sub); code != http.StatusAccepted {
		t.Fatalf("live submit: HTTP %d", code)
	}
	ts.Close()
	// An already-cancelled drain context forces cancellation of the live
	// run — the recording is finalized, but marked unclean.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("force-cancelled drain reported success")
	}

	if _, err := Run(dir, Options{}); err == nil || !strings.Contains(err.Error(), "unclean trailer") {
		t.Fatalf("mid-drain recording: err = %v, want unclean-trailer diagnostic", err)
	}
}

// TestReplayDeepQueueIdentical: how deep a shard's admission queue was
// when a submission left it is not a recorded input, so it must not
// change the plan. Nine live workflows queue behind a large analytic run
// on a one-shard recording daemon and are dequeued with the queue at full
// depth; replay, which drives one input at a time, must still reproduce
// every decision and plan.
func TestReplayDeepQueueIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("record/replay acceptance test skipped in -short mode")
	}
	const queued = 9
	dir := t.TempDir()
	srv, err := server.Open(server.Config{Shards: 1, QueueDepth: 64, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big, err := workload.LayeredScenario(workload.LayeredParams{Jobs: 2000, Width: 40, FanIn: 3, CCR: 1, Beta: 0.5},
		workload.GridParams{InitialResources: 16, ChangeInterval: 200, ChangePct: 0.25, MaxEvents: 8}, rng.New(0xb10c))
	if err != nil {
		t.Fatal(err)
	}
	var blocker wire.Submitted
	if code := postJSON(t, ts, "/v1/workflows", encodeSub(t, big, "", "aheft", "", wire.Options{}), &blocker); code != http.StatusAccepted {
		t.Fatalf("blocker submit: HTTP %d", code)
	}
	status := func(id string) wire.Status {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st wire.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	for deadline := time.Now().Add(10 * time.Second); status(blocker.ID).State == server.StateQueued; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never took the blocker")
		}
	}
	sample := workload.SampleScenario()
	body := encodeSub(t, sample, wire.ModeLive, "aheft", "acme", wire.Options{TieWindow: 0.05})
	ids := make([]string, queued)
	for i := range ids {
		var sub wire.Submitted
		if code := postJSON(t, ts, "/v1/workflows", body, &sub); code != http.StatusAccepted {
			t.Fatalf("live submit %d: HTTP %d", i, code)
		}
		ids[i] = sub.ID
	}
	if st := status(blocker.ID); st.State != server.StateRunning {
		t.Fatalf("the blocker was %s before all %d live submissions had queued behind it", st.State, queued)
	}
	if d := srv.MetricsSnapshot().QueueDepth[0]; d != queued {
		t.Fatalf("queue depth %d behind the blocker, want %d", d, queued)
	}

	for _, id := range ids {
		plan := waitPlan(t, ts, id)
		batch, err := wire.EncodeReport(&wire.Report{Events: faithfulEvents(plan, plan.Makespan)})
		if err != nil {
			t.Fatal(err)
		}
		if code := postJSON(t, ts, "/v1/workflows/"+id+"/report", batch, nil); code != http.StatusOK {
			t.Fatalf("report %s: HTTP %d", id, code)
		}
		waitTerminal(t, ts, id)
	}
	waitTerminal(t, ts, blocker.ID)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if m := srv.MetricsSnapshot(); m.Completed != queued+1 || m.Failed != 0 {
		t.Fatalf("recorded run: completed=%d failed=%d", m.Completed, m.Failed)
	}

	res, err := Run(dir, Options{Timeout: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical() {
		t.Fatalf("replay diverged (%d mismatches over %d outputs):\n%s",
			len(res.Divergences), res.Outputs, strings.Join(res.Divergences, "\n"))
	}
}

// waitPlan polls until the live workflow is planned and returns its plan.
func waitPlan(t testing.TB, ts *httptest.Server, id string) *wire.Plan {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := ts.Client().Get(ts.URL + "/v1/workflows/" + id + "/plan")
		if err != nil {
			t.Fatal(err)
		}
		var plan wire.Plan
		err = json.NewDecoder(resp.Body).Decode(&plan)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err == nil {
			return &plan
		}
	}
	t.Fatalf("no initial plan for %s", id)
	return nil
}
