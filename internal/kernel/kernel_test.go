package kernel_test

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

// countingEstimator wraps an estimator and counts Comp calls, to observe
// rank-cache behaviour.
type countingEstimator struct {
	cost.Estimator
	comps int
}

func (c *countingEstimator) Comp(j dag.JobID, r grid.ID) float64 {
	c.comps++
	return c.Estimator.Comp(j, r)
}

// TestStaticMatchesSample: the kernel's static pass reproduces the
// paper's Fig. 5(a) HEFT makespan of 80 on the Fig. 4 worked example.
func TestStaticMatchesSample(t *testing.T) {
	sc := workload.SampleScenario()
	k := kernel.New(sc.Graph, sc.Estimator())
	s, err := k.Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 80 {
		t.Fatalf("makespan = %g, want 80\n%s", s.Makespan(), s)
	}
}

// TestStaticEquivalentToReference: across random scenarios, the kernel's
// dense placement pass produces assignment-for-assignment the same
// schedule as the independent map-based reference (rank order +
// placeJob over a schedule.Schedule, reference_test.go).
func TestStaticEquivalentToReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xC0FFEE, 99} {
		sc := quickScenario(t, seed)
		est := sc.Estimator()
		rs := sc.Pool.Initial()
		k := kernel.New(sc.Graph, est)
		got, err := k.Static(rs, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ranks, _, err := kernel.New(sc.Graph, est).Ranks(rs)
		if err != nil {
			t.Fatal(err)
		}
		want := schedule.New()
		for _, job := range kernel.Order(ranks) {
			a, err := placeJob(sc.Graph, est, rs, want, job, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			want.Assign(a)
		}
		for _, j := range sc.Graph.Jobs() {
			if got.MustGet(j.ID) != want.MustGet(j.ID) {
				t.Fatalf("seed %d: job %s: kernel %+v, reference %+v",
					seed, j.Name, got.MustGet(j.ID), want.MustGet(j.ID))
			}
		}
	}
}

// TestRankCache: ranks are computed once per resource set — a repeat call
// with the same set touches the estimator zero times; a changed set
// recomputes.
func TestRankCache(t *testing.T) {
	sc := workload.SampleScenario()
	ce := &countingEstimator{Estimator: sc.Estimator()}
	k := kernel.New(sc.Graph, ce)
	rs0 := sc.Pool.Initial()
	if _, _, err := k.Ranks(rs0); err != nil {
		t.Fatal(err)
	}
	before := ce.comps
	if before == 0 {
		t.Fatal("rank computation never consulted the estimator")
	}
	if _, _, err := k.Ranks(rs0); err != nil {
		t.Fatal(err)
	}
	if ce.comps != before {
		t.Fatalf("cached Ranks re-consulted the estimator (%d → %d calls)", before, ce.comps)
	}
	rs1 := sc.Pool.AvailableAt(15) // r4 joined: different set
	if len(rs1) == len(rs0) {
		t.Fatal("test scenario lost its arrival")
	}
	if _, _, err := k.Ranks(rs1); err != nil {
		t.Fatal(err)
	}
	if ce.comps == before {
		t.Fatal("changed resource set did not invalidate the rank cache")
	}
	after := ce.comps
	k.InvalidateRanks()
	if _, _, err := k.Ranks(rs1); err != nil {
		t.Fatal(err)
	}
	if ce.comps == after {
		t.Fatal("InvalidateRanks did not force recomputation")
	}
}

// TestRanksEmptyResourceSet: the kernel refuses an empty resource set.
func TestRanksEmptyResourceSet(t *testing.T) {
	sc := workload.SampleScenario()
	k := kernel.New(sc.Graph, sc.Estimator())
	if _, _, err := k.Ranks(nil); err == nil || !strings.Contains(err.Error(), "empty resource set") {
		t.Fatalf("Ranks(nil) error = %v", err)
	}
	if _, err := k.Reschedule(nil, nil, kernel.Options{}); err == nil {
		t.Fatal("Reschedule over empty resource set accepted")
	}
}

// TestRescheduleNilStateIsStatic: a nil state means the empty clock-0
// snapshot, under which Reschedule degenerates to HEFT (§3.4).
func TestRescheduleNilStateIsStatic(t *testing.T) {
	sc := workload.SampleScenario()
	k := kernel.New(sc.Graph, sc.Estimator())
	rs := sc.Pool.Initial()
	a, err := k.Reschedule(rs, nil, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Static(rs, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range sc.Graph.Jobs() {
		if a.MustGet(j.ID) != b.MustGet(j.ID) {
			t.Fatalf("job %s differs between nil-state Reschedule and Static", j.Name)
		}
	}
}

// TestStateTransferLedger: earliest-wins recording, presence queries,
// epoch-based reset, and growth that preserves recorded entries.
func TestStateTransferLedger(t *testing.T) {
	sc := workload.SampleScenario()
	g := sc.Graph
	k := kernel.New(g, sc.Estimator())
	st := k.NewState(1)
	n1, n2 := g.JobByName("n1"), g.JobByName("n2")
	has := func(m, j dag.JobID, r grid.ID) bool {
		_, ok := st.TransferAt(m, j, r)
		return ok
	}

	st.SetTransfer(n1, n2, 0, 30)
	st.SetTransfer(n1, n2, 0, 20) // earlier wins
	st.SetTransfer(n1, n2, 0, 25) // later ignored
	if v, ok := st.TransferAt(n1, n2, 0); !ok || v != 20 {
		t.Fatalf("TransferAt = (%g, %v), want (20, true)", v, ok)
	}
	if !has(n1, n2, 0) || has(n1, n2, 1) {
		t.Fatal("presence query wrong")
	}
	// Unknown edge (n2 → n1 does not exist): ignored, absent.
	st.SetTransfer(n2, n1, 0, 5)
	if has(n2, n1, 0) {
		t.Fatal("transfer recorded for a non-edge")
	}
	// Growth preserves the recorded entry.
	st.SetTransfer(n1, n2, 50, 77)
	if v, ok := st.TransferAt(n1, n2, 0); !ok || v != 20 {
		t.Fatalf("ledger growth lost entry: (%g, %v)", v, ok)
	}
	if v, ok := st.TransferAt(n1, n2, 50); !ok || v != 77 {
		t.Fatalf("grown entry = (%g, %v), want (77, true)", v, ok)
	}
	// Reset drops everything without reallocating.
	st.Reset()
	if has(n1, n2, 0) || has(n1, n2, 50) {
		t.Fatal("Reset kept transfers")
	}
	if st.FinishedCount() != 0 {
		t.Fatal("Reset kept finishes")
	}
}

// TestStateFinishPin: finish/pin bookkeeping and counters.
func TestStateFinishPin(t *testing.T) {
	sc := workload.SampleScenario()
	k := kernel.New(sc.Graph, sc.Estimator())
	st := k.NewState(4)
	st.Finish(0, 2, 0, 9)
	st.Finish(0, 2, 0, 9) // idempotent for the counter
	if st.FinishedCount() != 1 || !st.Finished(0) || st.Finished(1) {
		t.Fatal("finish bookkeeping wrong")
	}
	if r, ast, aft := st.FinishedOutcome(0); r != 2 || ast != 0 || aft != 9 {
		t.Fatalf("outcome = (%v, %g, %g)", r, ast, aft)
	}
	st.Pin(schedule.Assignment{Job: 3, Resource: 1, Start: 5, Finish: 25})
	if !st.Pinned(3) || st.Pinned(2) {
		t.Fatal("pin bookkeeping wrong")
	}
	if st.Unfinished() != sc.Graph.Len()-2 {
		t.Fatalf("Unfinished = %d", st.Unfinished())
	}
	st.ClearPinned()
	if st.Pinned(3) {
		t.Fatal("ClearPinned kept a pin")
	}
}

// TestDispatchBest: the decision-time completion evaluation and its
// best/second-best tracking.
func TestDispatchBest(t *testing.T) {
	g := dag.New("pair")
	a := g.AddJob("a", "")
	b := g.AddJob("b", "")
	g.MustEdge(a, b, 30)
	g.MustValidate()
	tb := cost.MustTable([][]float64{
		{10, 10, 10},
		{10, 40, 25},
	})
	k := kernel.New(g, cost.Exact(tb))
	resOf := []grid.ID{0, grid.NoResource} // a ran on r0
	// b on r0: no transfer, 20+10 = 30. On r1: 20+30 transfer → 50+40 = 90.
	// On r2: 50+25 = 75.
	if got := k.DispatchCompletion(b, 0, 20, resOf); got != 30 {
		t.Fatalf("completion on r0 = %g, want 30", got)
	}
	if got := k.DispatchCompletion(b, 1, 20, resOf); got != 90 {
		t.Fatalf("completion on r1 = %g, want 90", got)
	}
	// Completion values in idle order [0,1,2] are 30, 90, 75. The
	// best/second tracking is the legacy min-min engine's, preserved
	// verbatim for parity: second starts at the first candidate's value
	// and only ever ratchets down, so here it stays 30.
	best, done, second := k.DispatchBest(b, []grid.ID{0, 1, 2}, 20, resOf)
	if best != 0 || done != 30 || second != 30 {
		t.Fatalf("DispatchBest = (%v, %g, %g), want (0, 30, 30)", best, done, second)
	}
	// Visiting the cheapest resource last exposes the true second-best.
	best, done, second = k.DispatchBest(b, []grid.ID{1, 2, 0}, 20, resOf)
	if best != 0 || done != 30 || second != 75 {
		t.Fatalf("DispatchBest = (%v, %g, %g), want (0, 30, 75)", best, done, second)
	}
	if best, _, _ := k.DispatchBest(b, nil, 20, resOf); best != grid.NoResource {
		t.Fatal("empty idle set must yield NoResource")
	}
}

// TestGraphAccessors: the kernel exposes its bindings.
func TestGraphAccessors(t *testing.T) {
	sc := workload.SampleScenario()
	est := sc.Estimator()
	k := kernel.New(sc.Graph, est)
	if k.Graph() != sc.Graph || k.Estimator() == nil {
		t.Fatal("accessors broken")
	}
}

// TestOrderMatchesStableSort: the rank order, sorted without reflection,
// is the permutation the stable sort it replaced gives, on random ranks
// drawn from a few values so most of them tie (signed zeros included).
func TestOrderMatchesStableSort(t *testing.T) {
	r := rng.New(39)
	values := []float64{0, math.Copysign(0, -1), 1, 2.5, 2.5 + 1e-12, 7, 1e9}
	for trial := 0; trial < 200; trial++ {
		ranks := make([]float64, 1+r.Intn(300))
		for i := range ranks {
			ranks[i] = values[r.Intn(len(values))]
		}
		want := make([]dag.JobID, len(ranks))
		for i := range want {
			want[i] = dag.JobID(i)
		}
		sort.SliceStable(want, func(a, b int) bool {
			ra, rb := ranks[want[a]], ranks[want[b]]
			if ra != rb {
				return ra > rb
			}
			return want[a] < want[b]
		})
		if got := kernel.Order(ranks); !slices.Equal(got, want) {
			t.Fatalf("trial %d, ranks %v:\n got %v\nwant %v", trial, ranks, got, want)
		}
	}
}
