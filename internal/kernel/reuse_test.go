package kernel_test

// Reuse safety of the pooled kernel and state arrays: a State that served
// one workflow and was released must plan the next workflow exactly as a
// never-pooled one does, and concurrent runs must not share arrays.

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/workload"
)

// walk runs sc to completion the way the analytic engine does — static
// plan, then at every pool change ship, pin, replan, adopt if better and
// re-stage — on k and st, recording every candidate plan and every ledger
// read (each incoming edge of each job on each resource) after each event.
func walk(t *testing.T, sc *workload.Scenario, k *kernel.Kernel, st *kernel.State) []string {
	t.Helper()
	g := sc.Graph
	s0, err := k.Static(sc.Pool.Initial(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := []string{s0.String()}
	prev := 0.0
	for _, clock := range sc.Pool.ChangeTimes() {
		if clock >= s0.Makespan() {
			break
		}
		st.Clock = clock
		st.ClearPinned()
		for _, j := range g.Jobs() {
			switch a := s0.MustGet(j.ID); {
			case a.Finish <= clock:
				st.Finish(j.ID, a.Resource, a.Start, a.Finish)
				if a.Finish > prev {
					st.Ship(j.ID, a.Resource, a.Finish, s0)
				}
			case a.Start < clock:
				st.Pin(a)
			}
		}
		prev = clock
		s1, err := k.Reschedule(sc.Pool.AvailableAt(clock), st, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if planner.Better(s0.Makespan(), s1.Makespan(), 0) {
			s0 = s1
			planner.Restage(k, st, s1)
		}
		out = append(out, fmt.Sprintf("%s%v", s1, s1.Transfers()))
		for _, j := range g.Jobs() {
			for i := range g.Preds(j.ID) {
				for r := 0; r < sc.Pool.Size(); r++ {
					if at, ok := st.PredTransferAt(j.ID, i, grid.ID(r)); ok {
						out = append(out, fmt.Sprintf("%d/%d@%d=%v", j.ID, i, r, at))
					}
				}
			}
		}
	}
	return out
}

// siteBLate is a data scenario (quickScenario 62 or 63) whose fast site B
// joins after the start — b1 at 10, b2 at 50 — so its walk replans.
func siteBLate(sc *workload.Scenario) *workload.Scenario {
	c := *sc
	rs := sc.Pool.Initial()
	c.Pool = grid.MustPoolLinks([]grid.Arrival{
		{Resource: rs[0]}, {Resource: rs[1]}, {Time: 10, Resource: rs[2]}, {Time: 50, Resource: rs[3]},
	}, sc.Pool.Links())
	return &c
}

// TestReleasedStatePlansLikeFresh runs a large data-mode workflow, releases
// its kernel and state, then runs a smaller data-mode workflow on whatever
// the pools hand back: every plan and ledger read must equal the same
// walk on a never-pooled state. Stale ledger entries of the first
// workflow sit at indices the second reuses, so an uncleared epoch array
// would surface as a phantom transfer.
func TestReleasedStatePlansLikeFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the pools' entries
	big, small := siteBLate(quickScenario(t, 63)), siteBLate(quickScenario(t, 62))

	kernel.DrainStatePool()
	k := quickKernel(t, small)
	want := walk(t, small, k, k.NewState(small.Pool.Size()))

	kernel.DrainStatePool()
	k = quickKernel(t, big)
	st := k.NewState(big.Pool.Size())
	walk(t, big, k, st)
	st.Release()
	k.Release()

	k = quickKernel(t, small)
	got := walk(t, small, k, k.NewState(small.Pool.Size()))
	if len(got) != len(want) {
		t.Fatalf("reused state: %d records, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs\nreused: %s\nfresh:  %s", i, got[i], want[i])
		}
	}
}

// TestConcurrentRunsShareNoArrays runs RunPolicy from four goroutines at
// once, each repeatedly and on its own scenario (two in data mode), against
// the shared pools; every result must equal the sequential run's. Run it
// under -race to catch two runs holding one array.
func TestConcurrentRunsShareNoArrays(t *testing.T) {
	seeds := []uint64{62, 63, 4, 7}
	run := func(sc *workload.Scenario) string {
		var opts policy.Options
		if sc.Files != nil {
			m, err := data.NewModel(sc.Files, sc.Pool, sc.Graph, 0)
			if err != nil {
				t.Error(err)
				return ""
			}
			opts.Data = m
		}
		res, err := planner.RunPolicy(context.Background(), sc.Graph, sc.Estimator(), sc.Pool, policy.MustGet("aheft"), opts)
		if err != nil {
			t.Error(err)
			return ""
		}
		return fmt.Sprintf("%s%v%+v", res.Schedule, res.Schedule.Transfers(), res.Decisions)
	}
	scs := make([]*workload.Scenario, len(seeds))
	want := make([]string, len(seeds))
	for i, seed := range seeds {
		scs[i] = quickScenario(t, seed)
		want[i] = run(scs[i])
	}
	var wg sync.WaitGroup
	for i := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				if got := run(scs[i]); got != want[i] {
					t.Errorf("seed %d rep %d: concurrent run differs from sequential", seeds[i], rep)
					return
				}
			}
		}()
	}
	wg.Wait()
}
