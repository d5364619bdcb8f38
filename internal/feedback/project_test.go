package feedback

import (
	"math"
	"slices"
	"testing"

	"aheft/internal/dag"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

// refProject is the tracker's own projection of its plan as it stood
// before kernel.Price took it over, without the dense edge lookups: the
// whole plan sorted through Assignments() and then filtered to the pending
// jobs, every edge's ledger entry found by a search of Preds and every
// edge cost asked of the estimator. With no data model and no shared grid
// it is the referee's algorithm.
func refProject(t *Tracker) float64 {
	mk := 0.0
	resFree := make([]float64, len(t.avail))
	projFin := make([]float64, t.g.Len())
	for j := range t.phase {
		switch t.phase[j] {
		case phaseFinished:
			projFin[j] = t.finishAt[j]
		case phaseStarted:
			dur := t.pinDur[j]
			if dur <= 0 {
				dur = t.est.Comp(dag.JobID(j), t.startRes[j])
			}
			projFin[j] = max(t.startAt[j]+dur, t.clock)
			resFree[t.startRes[j]] = max(resFree[t.startRes[j]], projFin[j])
		default:
			continue
		}
		mk = max(mk, projFin[j])
	}
	pending := slices.DeleteFunc(t.sched.Assignments(), func(a schedule.Assignment) bool { return t.phase[a.Job] != phasePending })
	for _, a := range pending {
		j := a.Job
		if int(a.Resource) >= len(t.avail) || !t.avail[a.Resource] {
			return math.Inf(1)
		}
		ready := t.clock
		for _, e := range t.g.Preds(j) {
			m := e.From
			var at float64
			switch t.phase[m] {
			case phaseFinished:
				i := slices.IndexFunc(t.g.Preds(j), func(p dag.Edge) bool { return p.From == m })
				if tt, ok := t.ks.PredTransferAt(j, i, a.Resource); ok {
					at = tt
				} else {
					at = t.clock + t.est.Comm(e, t.startRes[m], a.Resource)
				}
			case phaseStarted:
				at = projFin[m]
				if t.startRes[m] != a.Resource {
					at += t.est.Comm(e, t.startRes[m], a.Resource)
				}
			default:
				at = projFin[m]
				if pr := t.sched.MustGet(m).Resource; pr != a.Resource {
					at += t.est.Comm(e, pr, a.Resource)
				}
			}
			ready = max(ready, at)
		}
		fin := max(ready, resFree[a.Resource]) + t.est.Comp(j, a.Resource)
		projFin[j], resFree[a.Resource] = fin, fin
		mk = max(mk, fin)
	}
	return mk
}

// unsortedCopy rebuilds g unvalidated with its edges added in descending
// order: every Preds list is unsorted, so the kernel finds an edge by
// scanning (its predsSorted == false branch) where Price indexes it.
func unsortedCopy(t *testing.T, g *dag.Graph) *dag.Graph {
	t.Helper()
	c := dag.New(g.Name())
	for _, j := range g.Jobs() {
		c.AddJob(j.Name, j.Op)
	}
	for j := g.Len() - 1; j >= 0; j-- {
		for _, e := range slices.Backward(g.Succs(dag.JobID(j))) {
			if err := c.AddFileEdge(e.From, e.To, e.Data, e.File); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// price is what the tracker's next evaluation compares a replan against:
// its plan priced by its kernel on the live state and pool.
func price(tr *Tracker) float64 {
	tr.syncPins(tr.clock, nil)
	return tr.k.Price(tr.Available(), tr.ks, tr.sched)
}

// TestProjectMatchesSearchedLookups enacts the data scenario's graph on its
// raw edge weights under a perturbation script — noisy runtimes, variance
// reports, departures and rejoins, adopted reschedules — and after every
// step holds the tracker's price to refProject, to the bit: early, when
// every job is pending, through the middle and at the merge job's tail; on
// the validated graph and on a copy whose Preds lists are unsorted.
func TestProjectMatchesSearchedLookups(t *testing.T) {
	for _, unsorted := range []bool{false, true} {
		sc := workload.DataScenario(workload.DataParams{Searches: 24})
		if unsorted {
			cp := *sc
			cp.Graph = unsortedCopy(t, sc.Graph)
			sc = &cp
		}
		cfg := liveConfig(sc, sc.Pool)
		r := rng.New(18)
		input := make([]byte, 2048)
		for i := range input {
			input[i] = byte(r.IntN(256))
		}
		e := newEnactor(newChain(t, cfg, nil), sc, sc.Pool, &script{b: input})
		tr := e.c.tr
		var early, middle, late, infeasible int
		for more := true; more; more = e.step(t) {
			got, want := price(tr), refProject(tr)
			if got != want {
				t.Fatalf("unsorted=%v, %d jobs left: Price = %v, by searched lookups %v", unsorted, e.left, got, want)
			}
			switch n := sc.Graph.Len(); {
			case math.IsInf(got, 1):
				infeasible++
			case tr.nFinished == 0:
				early++
			case tr.nFinished < n/2:
				middle++
			case tr.nFinished < n:
				late++
			}
		}
		t.Logf("unsorted=%v: compared at %d early, %d middle, %d late and %d infeasible points, %d adoptions",
			unsorted, early, middle, late, infeasible, tr.Adoptions())
		if early == 0 || middle == 0 || late == 0 {
			t.Errorf("unsorted=%v: progress points early %d, middle %d, late %d: want all three", unsorted, early, middle, late)
		}
	}
}
