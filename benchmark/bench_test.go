package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aheft/internal/cost"
	"aheft/internal/feedback"
	"aheft/internal/history"
	"aheft/internal/policy"
	"aheft/internal/server"
	"aheft/internal/wire"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median(%v) = %g, want 3", xs, got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want the mean of the middle two, 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	// Nearest rank, as the daemon's /metrics windows compute it.
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := quantile(ten, tc.q); got != tc.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.9); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3.1, 2.9, 3.0, 3.3, 2.8})
	if !near(q1, 2.85) || !near(q3, 3.2) {
		t.Errorf("quartiles = %g, %g, want 2.85, 3.2", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 12})
	if !near(q1, 9.5) || !near(q3, 12.5) {
		t.Errorf("quartiles(10, 12) = %g, %g, want 9.5, 12.5", q1, q3)
	}
}

func TestSpreads(t *testing.T) {
	if got := iqrSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrSpread(1..10) = %g, want 1", got)
	}
	if got := rangeSpread([]float64{9, 11, 10}); !near(got, 0.2) {
		t.Errorf("rangeSpread(9, 11, 10) = %g, want 0.2", got)
	}
	if got := rangeSpread([]float64{4}); got != 0 {
		t.Errorf("rangeSpread of one value = %g, want 0", got)
	}
	if got := iqrSpread([]float64{0, 0, 0}); !math.IsInf(got, 1) {
		t.Errorf("iqrSpread around a zero median = %g, want +Inf", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handle", Start: 10, End: 90},
		// Two children of handle overlap on [40, 50]; a third reaches past
		// its parent's end and is clipped.
		{ID: 3, Parent: 2, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "b", Start: 40, End: 60},
		{ID: 5, Parent: 2, Name: "c", Start: 80, End: 120},
		{ID: 6, Parent: 3, Name: "leaf", Start: 25, End: 30},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 20,      // 100 − handle's 80
		2: 80 - 50, // children cover [20,60] and [80,90]
		3: 25,
		4: 20,
		5: 40,
		6: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestShadowSpansLayOutInsideParent(t *testing.T) {
	tc := newTracer()
	root := tc.newOp("op")
	time.Sleep(2 * time.Millisecond)
	tc.end(root)
	a := tc.shadow(root, "a", func() { time.Sleep(200 * time.Microsecond) })
	b := tc.shadow(root, "b", func() { time.Sleep(200 * time.Microsecond) })
	inner := tc.shadow(a, "inner", func() {})
	ra, rb, ri := tc.get(a), tc.get(b), tc.get(inner)
	if ra.Start != tc.get(root).Start || rb.Start != ra.End {
		t.Errorf("shadows not laid end to end from the parent's start: a=[%d,%d] b=[%d,%d]", ra.Start, ra.End, rb.Start, rb.End)
	}
	if ri.Start != ra.Start || ri.Parent != a || ri.Op != tc.get(root).Op {
		t.Errorf("nested shadow misplaced: %+v", *ri)
	}
	// Replays may take longer than the call they shadow (here: a sleep
	// that overshoots); the cover is then clipped to the parent.
	want := tc.get(root).dur() - ra.dur() - rb.dur()
	if want < 0 {
		want = 0
	}
	if got := selfTimes(tc.spans)[root]; got != want {
		t.Errorf("root self time = %d, want duration minus shadows = %d", got, want)
	}
}

func testInputs(t *testing.T, name string) *inputs {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	in, err := generate(sp, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// initialPlan plans a variant in process, the way the daemon would.
func initialPlan(t *testing.T, v *variant) *wire.Plan {
	t.Helper()
	tr, err := feedback.New(feedback.Config{
		Graph: v.sc.Graph, Prior: cost.Exact(v.sc.Table), Pool: v.sc.Pool,
		History: history.New(0), Policy: policy.MustGet("aheft"), Opts: policy.Options{Data: v.model},
	})
	if err != nil {
		t.Fatal(err)
	}
	return planDoc(tr, "initial")
}

func TestValidatePlan(t *testing.T) {
	for _, name := range []string{wlLiveFeedbackWAL, wlLiveDataStaging} {
		v := testInputs(t, name).variants[0]
		plan := initialPlan(t, v)
		if err := validatePlan(v, plan); err != nil {
			t.Fatalf("%s: a plan straight from the planner is rejected: %v", name, err)
		}
		mutate := func(f func(as []wire.Assignment)) *wire.Plan {
			p := *plan
			p.Assignments = append([]wire.Assignment(nil), plan.Assignments...)
			f(p.Assignments)
			return &p
		}
		// Two jobs sharing a resource, the second moved onto the first.
		overlap := mutate(func(as []wire.Assignment) {
			for i := range as {
				for j := range as {
					if i != j && as[i].Resource == as[j].Resource && as[j].Start >= as[i].Finish {
						d := as[j].Finish - as[j].Start
						as[j].Start = as[i].Start + (as[i].Finish-as[i].Start)/2
						as[j].Finish = as[j].Start + d
						return
					}
				}
			}
			t.Fatal("no two jobs share a resource")
		})
		if err := validatePlan(v, overlap); err == nil {
			t.Errorf("%s: overlapping plan accepted", name)
		}
		// A consumer started before its producer finished, on a resource
		// nothing else uses at that time (so only precedence is broken).
		g := v.sc.Graph
		early := mutate(func(as []wire.Assignment) {
			byJob := map[int]int{}
			for i, a := range as {
				byJob[a.Job] = i
			}
			for _, a := range as {
				if preds := g.Preds(g.Jobs()[a.Job].ID); len(preds) > 0 {
					p := as[byJob[int(preds[0].From)]]
					c := &as[byJob[a.Job]]
					d := c.Finish - c.Start
					c.Start = p.Start
					c.Finish = c.Start + d
					return
				}
			}
		})
		if err := validatePlan(v, early); err == nil {
			t.Errorf("%s: precedence-violating plan accepted", name)
		}
		missing := *plan
		missing.Assignments = plan.Assignments[1:]
		if err := validatePlan(v, &missing); err == nil {
			t.Errorf("%s: plan missing a job accepted", name)
		}
		twice := mutate(func(as []wire.Assignment) { as[1].Job = as[0].Job })
		if err := validatePlan(v, twice); err == nil {
			t.Errorf("%s: plan placing a job twice accepted", name)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, err := generate(sp, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sp, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(sp, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: same seed, digests %s and %s", sp.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 share digest %s", sp.name, a.digest)
		}
		for i := range a.order {
			for j := range a.order[i] {
				if a.order[i][j] != b.order[i][j] {
					t.Fatalf("%s: same seed, different client order", sp.name)
				}
			}
		}
	}
}

// Under exact runtimes and no churn the enactor reproduces the plan it
// follows, and its batches are time-ordered and complete.
func TestEnactorReproducesAnExactPlan(t *testing.T) {
	v := testInputs(t, wlLiveFeedbackWAL).variants[0]
	plan := initialPlan(t, v)
	en := newEnactor(v, drawTruth(v, 0, 0, rngFor(1, "test", 0)), plan)
	last, starts, finishes := 0.0, 0, 0
	for batch := en.next(); batch != nil; batch = en.next() {
		for _, ev := range batch {
			if ev.Time < last {
				t.Fatalf("event at %g after one at %g", ev.Time, last)
			}
			last = ev.Time
			switch ev.Kind {
			case wire.ReportJobStarted:
				starts++
			case wire.ReportJobFinished:
				finishes++
			}
		}
	}
	if starts != v.jobs() || finishes != v.jobs() {
		t.Errorf("reported %d starts and %d finishes for %d jobs", starts, finishes, v.jobs())
	}
	if mk := en.makespan(); math.Abs(mk-plan.Makespan) > timeEps(mk) {
		t.Errorf("enacted makespan %g, planned %g", mk, plan.Makespan)
	}
}

func TestManifestMatchesTheCode(t *testing.T) {
	m, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, specs[i].name)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		setup = setup || d.Name == "setup_s"
	}
	if !setup {
		t.Error("BENCHMARK.json has no setup_s")
	}
}

// testDaemon is an in-process daemon behind a real listener.
func testDaemon(t *testing.T, cfg server.Config, wrap func(http.Handler) http.Handler) (*server.Server, string) {
	t.Helper()
	srv, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		// Half-enacted workflows (the crash fixtures', a failed test's)
		// never drain; the deadline force-cancels them.
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts.URL
}

func smokeConfig(t *testing.T, sp spec) server.Config {
	cfg := server.Config{}
	if sp.durable {
		cfg.DataDir = t.TempDir()
		cfg.SnapshotInterval = time.Hour
	}
	return cfg
}

// smoke runs a workload's closed loop for a second against an in-process
// daemon: the same callers, enactor and checks as a real run.
func smoke(t *testing.T, name string, check func(base string, in *inputs) *tally) {
	t.Parallel()
	in := testInputs(t, name)
	_, base := testDaemon(t, smokeConfig(t, in.spec), nil)
	if c := check(base, in); c.failed > 0 || c.attempted == 0 {
		t.Fatalf("check pass: attempted %d, failed %d: %v", c.attempted, c.failed, c.errs)
	}
	got := startClients(base, in, time.Now().Add(time.Second))()
	if got.failed > 0 || len(got.ops) == 0 {
		t.Fatalf("closed loop: %d ops, %d failed: %v", len(got.ops), got.failed, got.errs)
	}
	m, err := scrapeMetrics(newClient(base))
	if err != nil {
		t.Fatal(err)
	}
	if m.EventsDropped != 0 || m.Failed != 0 || m.WALErrors != 0 {
		t.Errorf("daemon reports events_dropped=%d failed=%d wal_errors=%d", m.EventsDropped, m.Failed, m.WALErrors)
	}
	if in.spec.durable && m.WALBytes == 0 {
		t.Error("durable workload wrote no WAL")
	}
}

func TestSmokeSubmitAnalytic(t *testing.T) { smoke(t, wlSubmitAnalytic, checkPass) }

func TestSmokeLiveFeedbackWAL(t *testing.T) { smoke(t, wlLiveFeedbackWAL, checkPass) }

// The data workload's full check pass takes seconds; the smoke verifies
// one variant for partialReports round trips and fast-forwards it.
func TestSmokeLiveDataStaging(t *testing.T) {
	smoke(t, wlLiveDataStaging, func(base string, in *inputs) *tally {
		cl := &caller{c: newClient(base), in: in, verify: true}
		cl.liveWorkflow(in.variants[0], in.spec.partialReports)
		return &cl.t
	})
}

// crashFixture populates a small durable daemon, crashes it, and returns
// what crash_recovery would verify against.
func crashFixture(t *testing.T) (in *inputs, cfg server.Config, pop *populated) {
	t.Helper()
	in = testInputs(t, wlCrashRecovery)
	in.spec.crashN = 6
	cfg = smokeConfig(t, in.spec)
	srv, base := testDaemon(t, cfg, nil)
	pop = &populated{}
	if got := populate(base, in, pop); got.failed > 0 {
		t.Fatalf("populate: %v", got.errs)
	}
	srv.Crash()
	return in, cfg, pop
}

func TestSmokeCrashRecovery(t *testing.T) {
	t.Parallel()
	in, cfg, pop := crashFixture(t)
	_, base := testDaemon(t, cfg, nil)
	c := newClient(base)
	if err := verifyRecovered(c, pop.marks); err != nil {
		t.Fatal(err)
	}
	// Recovery must leave a run the enactor can simply carry on with.
	cl := &caller{c: c, in: in, tenant: 1, verify: true}
	if !cl.enact(pop.keep, 0, nil) {
		t.Fatalf("driving a recovered workflow to completion: %v", cl.t.errs)
	}
	if len(cl.t.gains) != 1 {
		t.Errorf("expected the kept run's makespan gain, got %v", cl.t.gains)
	}
}

// A data directory cut short must fail the recovery check, not pass it
// with fewer workflows.
func TestTruncatedDataDirFailsRecovery(t *testing.T) {
	t.Parallel()
	_, cfg, pop := crashFixture(t)
	var biggest string
	var size int64
	err := filepath.Walk(cfg.DataDir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".log") && info.Size() > size {
			biggest, size = path, info.Size()
		}
		return err
	})
	if err != nil || biggest == "" {
		t.Fatalf("no WAL segment under %s (%v)", cfg.DataDir, err)
	}
	if err := os.Truncate(biggest, size/2); err != nil {
		t.Fatal(err)
	}
	_, base := testDaemon(t, cfg, nil)
	if err := verifyRecovered(newClient(base), pop.marks); err == nil {
		t.Fatal("a half-truncated WAL segment passed the recovery check")
	}
}

// A daemon that hands out a corrupted plan must fail the run: the proxy
// moves one job of every initial plan onto another's interval.
func TestCorruptedPlanFailsTheRun(t *testing.T) {
	t.Parallel()
	in := testInputs(t, wlLiveFeedbackWAL)
	corrupt := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/plan") {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var p wire.Plan
			if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &p) == nil {
				p.Assignments[1].Resource = p.Assignments[0].Resource
				p.Assignments[1].Start = p.Assignments[0].Start
				p.Assignments[1].Finish = p.Assignments[0].Finish
				body, _ := json.Marshal(&p)
				rec.Body = bytes.NewBuffer(body)
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
		})
	}
	_, base := testDaemon(t, smokeConfig(t, in.spec), corrupt)
	cl := &caller{c: newClient(base), in: in, verify: true}
	if cl.liveWorkflow(in.variants[0], 0) || cl.t.failed == 0 {
		t.Fatal("a corrupted initial plan did not fail the workflow")
	}
	if !strings.Contains(strings.Join(cl.t.errs, "\n"), "initial plan") {
		t.Errorf("failure does not name the plan: %v", cl.t.errs)
	}
}

func TestResultLineHoldsExactlyTheDeclaredMetrics(t *testing.T) {
	m := &manifest{
		EndToEnd: []metricDecl{{Name: "setup_s", Unit: "s"}, {Name: "latency_p50_ms", Unit: "ms"}},
		PerLayer: []metricDecl{{Name: "kernel.rank_us", Unit: "us"}},
	}
	r := &result{
		workload: "w", attempted: 10,
		e2e:   map[string]float64{"setup_s": 0.5, "latency_p50_ms": 1.25, "extra": 9},
		layer: map[string]float64{"kernel.rank_us": 12, "undeclared": 1},
	}
	for _, traced := range []bool{false, true} {
		f, err := os.CreateTemp(t.TempDir(), "line")
		if err != nil {
			t.Fatal(err)
		}
		if err := printResultLine(f, r, m, traced); err != nil {
			t.Fatal(err)
		}
		f.Close()
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(data, &line); err != nil {
			t.Fatalf("result line %q: %v", data, err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted != 10 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("result line %q: wrong correct/attempted/failed", data)
		}
		want := map[string]string{"setup_s": "s", "latency_p50_ms": "ms"}
		if traced {
			want = map[string]string{"kernel.rank_us": "us"}
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("result line holds %d metrics, want %d: %s", len(line.Metrics), len(want), data)
		}
		for name, unit := range want {
			if line.Metrics[name].Unit != unit {
				t.Errorf("metric %s has unit %q, want %q", name, line.Metrics[name].Unit, unit)
			}
		}
	}
	delete(r.e2e, "latency_p50_ms")
	f, _ := os.CreateTemp(t.TempDir(), "line")
	defer f.Close()
	if err := printResultLine(f, r, m, false); err == nil {
		t.Error("a correct run missing a declared metric printed a result line")
	}
}
