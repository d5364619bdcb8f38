package feedback

import (
	"math"
	"slices"
	"testing"

	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

// refProject is Project as it stood before the dense edge lookups: the
// whole plan sorted through Assignments() and then filtered to the pending
// jobs, every edge's ledger entry found by TransferAt's search of Preds and
// every file cost by CommEst's lookup in the catalog's name map.
func refProject(t *Tracker) float64 {
	mk := 0.0
	resFree := make([]float64, len(t.resFree))
	projFin := make([]float64, len(t.projFin))
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
				if tt, ok := t.ks.TransferAt(m, j, a.Resource); ok {
					at = tt
				} else {
					at = t.clock + t.k.CommEst(e, t.startRes[m], a.Resource)
				}
			case phaseStarted:
				at = projFin[m]
				if t.startRes[m] != a.Resource {
					at += t.k.CommEst(e, t.startRes[m], a.Resource)
				}
			default:
				at = projFin[m]
				if pr := t.sched.MustGet(m).Resource; pr != a.Resource {
					at += t.k.CommEst(e, pr, a.Resource)
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
// scanning (its predsSorted == false branch) where Project indexes it.
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

// TestProjectMatchesSearchedLookups enacts the data-aware scenario under a
// perturbation script — noisy runtimes, variance reports, departures and
// rejoins, adopted reschedules — and after every step holds Project to
// refProject, to the bit: early, when every job is pending, through the
// middle and at the merge job's tail; on the validated graph and on a copy
// whose Preds lists are unsorted.
func TestProjectMatchesSearchedLookups(t *testing.T) {
	for _, unsorted := range []bool{false, true} {
		sc := workload.DataScenario(workload.DataParams{Searches: 24})
		if unsorted {
			cp := *sc
			cp.Graph = unsortedCopy(t, sc.Graph)
			sc = &cp
		}
		m, err := data.NewModel(sc.Files, sc.Pool, sc.Graph, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := liveConfig(sc, sc.Pool)
		cfg.Opts.Data = m
		r := rng.New(18)
		input := make([]byte, 2048)
		for i := range input {
			input[i] = byte(r.IntN(256))
		}
		e := newEnactor(newChain(t, cfg, nil), sc, sc.Pool, &script{b: input})
		tr := e.c.tr
		var early, middle, late, infeasible int
		for more := true; more; more = e.step(t) {
			got, want := tr.Project(), refProject(tr)
			if got != want {
				t.Fatalf("unsorted=%v, %d jobs left: Project() = %v, by searched lookups %v", unsorted, e.left, got, want)
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
