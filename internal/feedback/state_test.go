package feedback

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/occupancy"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// mustJSON marshals v for byte-level comparison of exported states.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cloneRepo rebuilds a repository the way the daemon's recovery does:
// import the snapshot cells into a fresh store.
func cloneRepo(src *history.Repository) *history.Repository {
	dst := history.New(src.Alpha())
	dst.Import(src.Export())
	return dst
}

// sampleBatches drives the Fig. 4 sample workflow partway: jobs 0..3
// finish with drifted runtimes (variance against accruing history), r4
// joins mid-run, job 4 starts and reports a variance pin. The batches
// exercise every journalled dimension: phases, measured runtimes,
// availability, pins, decisions, adoptions and the transfer ledger.
func sampleBatches() [][]wire.ReportEvent {
	return [][]wire.ReportEvent{
		{
			{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 0},
			{Kind: wire.ReportJobFinished, Time: 11, Job: 0, Resource: 0, Duration: 11},
		},
		{
			{Kind: wire.ReportJobStarted, Time: 12, Job: 1, Resource: 1},
			{Kind: wire.ReportJobStarted, Time: 13, Job: 2, Resource: 0},
			{Kind: wire.ReportJobFinished, Time: 26, Job: 1, Resource: 1, Duration: 14},
			{Kind: wire.ReportJobFinished, Time: 29, Job: 2, Resource: 0, Duration: 16},
		},
		{
			{Kind: wire.ReportResourceJoin, Time: 30, Resource: 3},
			{Kind: wire.ReportJobStarted, Time: 31, Job: 3, Resource: 2},
			{Kind: wire.ReportJobFinished, Time: 45, Job: 3, Resource: 2, Duration: 14},
		},
		{
			{Kind: wire.ReportJobStarted, Time: 46, Job: 4, Resource: 1},
			{Kind: wire.ReportVariance, Time: 50, Job: 4, Duration: 21},
		},
	}
}

// restoreClone journals tr the way the daemon would — export state,
// clone the tenant repository — and restores into an equivalent config.
func restoreClone(t *testing.T, tr *Tracker, sc *workload.Scenario, occ *occupancy.View) (*Tracker, *history.Repository) {
	t.Helper()
	st := tr.ExportState()
	// Round-trip through JSON: the state crosses a WAL/snapshot boundary
	// in production, so the serialised form must carry everything.
	var rt TrackerState
	if err := json.Unmarshal(mustJSON(t, st), &rt); err != nil {
		t.Fatal(err)
	}
	repo := cloneRepo(tr.repo)
	got, err := Restore(Config{
		Graph:     sc.Graph,
		Prior:     sc.Estimator(),
		Pool:      sc.Pool,
		History:   repo,
		Policy:    policy.MustGet("aheft"),
		Occupancy: occ,
	}, &rt)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return got, repo
}

// scrubTelemetry copies a decision log with the process-local telemetry
// fields (wall time) zeroed: only the semantic fields are part of the
// recovery identity.
func scrubTelemetry(ds []planner.Decision) []planner.Decision {
	out := make([]planner.Decision, len(ds))
	for i, d := range ds {
		d.ElapsedMs, d.RankMs, d.PlaceMs = 0, 0, 0
		out[i] = d
	}
	return out
}

// TestExportRestoreIdentity is the core recovery property: after any
// prefix of a live run, export → restore → export is the identity at
// the byte level, and the restored tracker is behaviourally equivalent —
// identical subsequent batches produce identical outcomes, decisions,
// plans and final states.
func TestExportRestoreIdentity(t *testing.T) {
	batches := sampleBatches()
	for cut := 0; cut <= len(batches); cut++ {
		orig, sc := newSampleTracker(t, policy.Options{TieWindow: 0.05})
		for _, b := range batches[:cut] {
			if _, err := orig.Apply(b); err != nil {
				t.Fatalf("cut %d: apply: %v", cut, err)
			}
		}
		rest, _ := restoreClone(t, orig, sc, nil)

		a, b := mustJSON(t, orig.ExportState()), mustJSON(t, rest.ExportState())
		if string(a) != string(b) {
			t.Fatalf("cut %d: restored state differs\n orig: %s\n rest: %s", cut, a, b)
		}
		if orig.Generation() != rest.Generation() || orig.Adoptions() != rest.Adoptions() {
			t.Fatalf("cut %d: generation/adoptions diverge", cut)
		}
		if !reflect.DeepEqual(scrubTelemetry(orig.Decisions()), scrubTelemetry(rest.Decisions())) {
			t.Fatalf("cut %d: decision logs diverge", cut)
		}

		// Behavioural equivalence: feed both the remaining batches and
		// compare outcomes step by step, then final exported states.
		for bi, batch := range batches[cut:] {
			o1, e1 := orig.Apply(batch)
			o2, e2 := rest.Apply(batch)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("cut %d batch %d: errors diverge: %v vs %v", cut, bi, e1, e2)
			}
			if e1 != nil {
				continue
			}
			if string(mustJSON(t, o1)) != string(mustJSON(t, o2)) {
				t.Fatalf("cut %d batch %d: outcomes diverge", cut, bi)
			}
		}
		fa, fb := mustJSON(t, orig.ExportState()), mustJSON(t, rest.ExportState())
		if string(fa) != string(fb) {
			t.Fatalf("cut %d: post-replay states diverge\n orig: %s\n rest: %s", cut, fa, fb)
		}
	}
}

// TestHistoryDeltaReplay pins the repository recovery arithmetic down:
// snapshot cells + the Recorded deltas of later batches, replayed in
// order, reproduce the never-crashed repository bit for bit.
func TestHistoryDeltaReplay(t *testing.T) {
	batches := sampleBatches()
	orig, _ := newSampleTracker(t, policy.Options{})
	// "Snapshot" after the first batch...
	if _, err := orig.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	recovered := cloneRepo(orig.repo)
	// ...then journal the deltas of every later batch.
	var deltas []HistoryDelta
	for _, b := range batches[1:] {
		out, err := orig.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, out.Recorded...)
	}
	for _, d := range deltas {
		if err := recovered.Record(d.Op, grid.ID(d.Resource), d.Duration); err != nil {
			t.Fatalf("replay delta %+v: %v", d, err)
		}
	}
	a, b := mustJSON(t, orig.repo.Export()), mustJSON(t, recovered.Export())
	if string(a) != string(b) {
		t.Fatalf("replayed repository differs\n orig: %s\n rest: %s", a, b)
	}
}

// TestSharedGridLedgerReconstruction restores two residents of one grid
// into a fresh ledger and requires the reassembled reservation set to be
// bit-identical to the live one.
func TestSharedGridLedgerReconstruction(t *testing.T) {
	live := occupancy.NewLedger(4)
	a, sca := newSharedTracker(t, live, "wf-a")
	b, _ := newSharedTracker(t, live, "wf-b")
	if _, err := a.Apply(sampleBatches()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Apply([]wire.ReportEvent{
		{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 1},
	}); err != nil {
		t.Fatal(err)
	}

	fresh := occupancy.NewLedger(4)
	ra, _ := restoreClone(t, a, sca, fresh.View("wf-a"))
	rb, _ := restoreClone(t, b, sca, fresh.View("wf-b"))
	if ra == nil || rb == nil {
		t.Fatal("restore returned nil tracker")
	}
	la, lb := mustJSON(t, live.Export()), mustJSON(t, fresh.Export())
	if string(la) != string(lb) {
		t.Fatalf("reassembled ledger differs\n live: %s\n rest: %s", la, lb)
	}
	if live.Total() != fresh.Total() || fresh.Total() == 0 {
		t.Fatalf("totals: live %d, fresh %d", live.Total(), fresh.Total())
	}
	// The restored residents still see each other: releasing one must
	// leave only the other's entries.
	if n := fresh.Release("wf-a"); n == 0 {
		t.Fatal("wf-a held no reservations after restore")
	}
	for _, o := range fresh.Export() {
		if o.Owner != "wf-b" {
			t.Fatalf("stray reservation %+v after release", o)
		}
	}
}

// TestAlreadyApplied covers the idempotent-ack predicate: exact replays
// of folded batches are recognised, novel or inconsistent batches are
// not.
func TestAlreadyApplied(t *testing.T) {
	batches := sampleBatches()
	tr, _ := newSampleTracker(t, policy.Options{})
	if tr.AlreadyApplied(nil) || tr.AlreadyApplied(batches[0]) {
		t.Fatal("fresh tracker claims batches already applied")
	}
	for i, b := range batches {
		if _, err := tr.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for j := 0; j <= i; j++ {
			if !tr.AlreadyApplied(batches[j]) {
				t.Fatalf("replay of batch %d not recognised after batch %d", j, i)
			}
		}
		for j := i + 1; j < len(batches); j++ {
			if tr.AlreadyApplied(batches[j]) {
				t.Fatalf("future batch %d claimed applied after batch %d", j, i)
			}
		}
	}
	// Same shape, wrong facts: a finished job at a different time, a
	// started job on a different resource, an available resource joining.
	for _, evs := range [][]wire.ReportEvent{
		{{Kind: wire.ReportJobFinished, Time: 12, Job: 0}},
		{{Kind: wire.ReportJobStarted, Time: 0, Job: 0, Resource: 2}},
		{{Kind: wire.ReportResourceLeave, Time: 1, Resource: 2}},
		{{Kind: wire.ReportVariance, Time: 2, Job: 7}},
	} {
		if tr.AlreadyApplied(evs) {
			t.Fatalf("inconsistent batch %+v claimed applied", evs)
		}
	}
}

// TestRestoreRejectsCorruptState enumerates the failure modes a mangled
// journal can produce: every one must surface as an error, never a
// panic, and never a half-built tracker.
func TestRestoreRejectsCorruptState(t *testing.T) {
	orig, sc := newSampleTracker(t, policy.Options{})
	if _, err := orig.Apply(sampleBatches()[0]); err != nil {
		t.Fatal(err)
	}
	base := orig.ExportState()
	cfg := Config{
		Graph:   sc.Graph,
		Prior:   sc.Estimator(),
		Pool:    sc.Pool,
		History: cloneRepo(orig.repo),
		Policy:  policy.MustGet("aheft"),
	}
	mutations := map[string]func(st *TrackerState){
		"nil-everything":    func(st *TrackerState) { *st = TrackerState{} },
		"zero-generation":   func(st *TrackerState) { st.Generation = 0 },
		"short-phase":       func(st *TrackerState) { st.Phase = st.Phase[:1] },
		"short-avail":       func(st *TrackerState) { st.Avail = st.Avail[:1] },
		"missing-job":       func(st *TrackerState) { st.Assignments = st.Assignments[1:] },
		"duplicate-job":     func(st *TrackerState) { st.Assignments[1] = st.Assignments[0] },
		"bad-resource":      func(st *TrackerState) { st.Assignments[0].Resource = 99 },
		"inverted-interval": func(st *TrackerState) { st.Assignments[0].Start = st.Assignments[0].Finish + 1 },
		"nan-clock":         func(st *TrackerState) { st.Clock = math.NaN() },
		"bad-phase":         func(st *TrackerState) { st.Phase[0] = 9 },
		"bad-start-res":     func(st *TrackerState) { st.Phase[0] = 1; st.StartRes[0] = -1 },
		"bad-transfer":      func(st *TrackerState) { st.Transfers = []TransferState{{From: -1, To: 0}} },
		"bad-trigger": func(st *TrackerState) {
			st.Decisions = []wire.Decision{{Trigger: "eclipse"}}
		},
	}
	for name, mutate := range mutations {
		var st TrackerState
		if err := json.Unmarshal(mustJSON(t, base), &st); err != nil {
			t.Fatal(err)
		}
		mutate(&st)
		if _, err := Restore(cfg, &st); err == nil {
			t.Fatalf("%s: corrupt state restored without error", name)
		}
	}
	if _, err := Restore(cfg, nil); err == nil {
		t.Fatal("nil state restored without error")
	}
}

// TestDecisionWireRoundTrip covers the +Inf sentinel and trigger names.
func TestDecisionWireRoundTrip(t *testing.T) {
	for _, d := range []planner.Decision{
		{Clock: 1, PoolSize: 3, OldMakespan: 80, NewMakespan: 76, Adopted: true, Trigger: planner.TriggerArrival, ArrivedCount: 1},
		{Clock: 2, PoolSize: 2, OldMakespan: math.Inf(1), NewMakespan: 90, Adopted: true, Trigger: planner.TriggerDeparture},
		{Clock: 3, PoolSize: 4, OldMakespan: 50, NewMakespan: 55, Trigger: planner.TriggerVariance, JobsFinished: 2},
		{Clock: 4, PoolSize: 4, OldMakespan: 60, NewMakespan: 58, Trigger: planner.TriggerContention},
	} {
		got, err := DecisionFromWire(DecisionToWire(d))
		if err != nil {
			t.Fatalf("%+v: %v", d, err)
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("round trip %+v -> %+v", d, got)
		}
	}
	if _, err := ParseTrigger("eclipse"); err == nil {
		t.Fatal("bogus trigger parsed")
	}
}

// TestParseTriggerUpgrade: nothing produces the retired upgrade trigger
// any more, but a journalled decision carrying it still decodes and
// re-encodes unchanged.
func TestParseTriggerUpgrade(t *testing.T) {
	tr, err := ParseTrigger("upgrade")
	if err != nil || tr != planner.TriggerUpgrade {
		t.Fatalf("ParseTrigger(upgrade) = (%v, %v)", tr, err)
	}
	w := wire.Decision{Clock: 0, PoolSize: 3, OldMakespan: 88, NewMakespan: 80, Adopted: true, Trigger: "upgrade"}
	d, err := DecisionFromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := DecisionToWire(d); got != w {
		t.Fatalf("upgrade decision re-encodes as %+v, want %+v", got, w)
	}
}
