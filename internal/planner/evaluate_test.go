package planner_test

// The Fig. 2 loop body every engine shares: the adoption test (Better),
// the adoption rule over a walk of pool events, the input re-staging on
// adoption (Restage), and the analytic runner pricing those re-staged
// transfers with the data model.

import (
	"context"
	"fmt"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

func TestBetter(t *testing.T) {
	if !planner.Better(100, 99, 0) {
		t.Fatal("99 should be better than 100")
	}
	if planner.Better(100, 100, 0) {
		t.Fatal("equal is not better")
	}
	if planner.Better(100, 99.99, 0.1) {
		t.Fatal("improvement below eps should not count")
	}
	if planner.Better(100, 100.0-1e-12, 0) {
		t.Fatal("float-noise improvement should not count")
	}
}

// TestAdoptionRuleNeverIncreasesMakespan: a raw reschedule with more
// resources may come out worse than the plan it would replace (greedy
// ties), so the makespan is protected by the adoption rule as the planner
// applies it.
func TestAdoptionRuleNeverIncreasesMakespan(t *testing.T) {
	root := rng.New(0xADA)
	for i := 0; i < 20; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		sc, err := workload.RandomScenario(workload.RandomParams{
			Jobs: 10 + r.IntN(30), CCR: 5, OutDegree: 0.3, Beta: 0.5,
		}, workload.GridParams{
			InitialResources: 3, ChangeInterval: 100, ChangePct: 0.4, MaxEvents: 5,
		}, r)
		if err != nil {
			t.Fatal(err)
		}
		est := sc.Estimator()
		s0, err := kernel.New(sc.Graph, est).Static(sc.Pool.Initial(), kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cur := s0
		for _, tc := range sc.Pool.ChangeTimes() {
			if tc >= cur.Makespan() {
				break
			}
			k := kernel.New(sc.Graph, est)
			st := k.NewState(sc.Pool.Size())
			st.Snapshot(cur, tc, kernel.SnapshotOptions{})
			s1, err := k.Reschedule(sc.Pool.AvailableAt(tc), st, kernel.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if planner.Better(cur.Makespan(), s1.Makespan(), 0) {
				if s1.Makespan() >= cur.Makespan() {
					t.Fatalf("Better() lied: %g vs %g", s1.Makespan(), cur.Makespan())
				}
				cur = s1
			}
		}
		if cur.Makespan() > s0.Makespan()+1e-9 {
			t.Fatalf("case %d: adaptive makespan %g exceeds static %g",
				i, cur.Makespan(), s0.Makespan())
		}
	}
}

// ledger copies every transfer st records.
func ledger(st *kernel.State) map[[3]int]float64 {
	out := map[[3]int]float64{}
	st.ForEachTransfer(func(from, to dag.JobID, r grid.ID, at float64) {
		out[[3]int{int(from), int(to), int(r)}] = at
	})
	return out
}

// TestRestage: on adoption, every job s1 may still move gets a fresh
// transfer of each finished predecessor's file toward its new resource,
// timed clock + PredComm, unless the file is already directed there;
// finished and pinned consumers, and every other ledger entry, are left
// alone. s1 keeps the even jobs where s0 put them (their files were
// shipped there on finish) and moves the odd ones one resource over.
func TestRestage(t *testing.T) {
	dsc := workload.DataScenario(workload.DataParams{})
	dm, err := data.NewModel(dsc.Files, dsc.Pool, dsc.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sc    *workload.Scenario
		model *data.Model
		frac  float64
	}{
		{"classic", workload.SampleScenario(), nil, 0.6},
		{"data", dsc, dm, 0.4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.sc.Graph
			k := kernel.New(g, tc.sc.Estimator())
			if tc.model != nil {
				k.SetData(tc.model)
			}
			rs := tc.sc.Pool.Initial()
			s0, err := k.Static(rs, kernel.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := k.NewState(tc.sc.Pool.Size())
			st.Snapshot(s0, tc.frac*s0.Makespan(), kernel.SnapshotOptions{})
			s1 := schedule.New()
			for _, j := range g.Jobs() {
				a := s0.MustGet(j.ID)
				if !st.Finished(j.ID) && !st.Pinned(j.ID) && j.ID%2 == 1 {
					a.Resource = (a.Resource + 1) % grid.ID(len(rs))
				}
				s1.Assign(a)
			}
			before := ledger(st)
			planner.Restage(k, st, s1)
			after := ledger(st)

			var fresh, directed, settled int
			for _, j := range g.Jobs() {
				r := s1.MustGet(j.ID).Resource
				for i, e := range g.Preds(j.ID) {
					if !st.Finished(e.From) {
						continue
					}
					key := [3]int{int(e.From), int(j.ID), int(r)}
					old, had := before[key]
					switch {
					case st.Finished(j.ID) || st.Pinned(j.ID):
						settled++
					case had:
						directed++
						if after[key] != old {
							t.Errorf("%s→%s: directed transfer moved from %g to %g", g.Job(e.From).Name, j.Name, old, after[key])
						}
					default:
						fresh++
						pr, _, _ := st.FinishedOutcome(e.From)
						if want := st.Clock + k.PredComm(j.ID, i, pr, r); after[key] != want {
							t.Errorf("%s→%s: fresh transfer at %g, want clock + PredComm = %g", g.Job(e.From).Name, j.Name, after[key], want)
						}
						delete(after, key)
					}
				}
			}
			if fresh == 0 || directed == 0 || settled == 0 {
				t.Fatalf("fresh %d, directed %d, finished or pinned %d: every case must occur", fresh, directed, settled)
			}
			// Everything but the fresh transfers is exactly as before.
			if len(after) != len(before) {
				t.Fatalf("ledger has %d entries besides the fresh ones, want %d", len(after), len(before))
			}
			for key, at := range before {
				if after[key] != at {
					t.Errorf("entry %v changed from %g to %g", key, at, after[key])
				}
			}
		})
	}
}

// TestRunnerRestagesAtFileCost: the data-heavy BLAST case with site B
// joining late (b1 at t = 5, b2 at t = 15). Every database byte a search
// reads on site B must cross both site links, and nothing ships toward
// site B before the first adoption, so no search placed there can start
// before that adoption's clock plus the database's transfer time.
func TestRunnerRestagesAtFileCost(t *testing.T) {
	sc := workload.DataScenario(workload.DataParams{Searches: 6, LinkBW: 4})
	var arrivals []grid.Arrival
	for _, a := range sc.Pool.Arrivals() {
		a.Time = map[grid.ID]float64{2: 5, 3: 15}[a.Resource.ID]
		arrivals = append(arrivals, a)
	}
	sc.Pool = grid.MustPoolLinks(arrivals, sc.Pool.Links())
	m, err := data.NewModel(sc.Files, sc.Pool, sc.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := planner.RunPolicy(context.Background(), sc.Graph, cost.Exact(sc.Table), sc.Pool,
		policy.MustGet("aheft"), policy.Options{Data: m})
	if err != nil {
		t.Fatal(err)
	}
	first := -1.0
	for _, d := range res.Decisions {
		if d.Adopted {
			first = d.Clock
			break
		}
	}
	if first < 0 {
		t.Fatal("no adoption: the case no longer exercises re-staging")
	}
	g, db := sc.Graph, m.Index("db")
	prep := res.Schedule.MustGet(g.JobByName("prep"))
	onB := 0
	for _, j := range g.Jobs() {
		a := res.Schedule.MustGet(j.ID)
		if j.Op != "search" || a.Resource < 2 {
			continue
		}
		onB++
		if eta := first + m.StaticComm(db, prep.Resource, a.Resource); a.Start < eta {
			t.Errorf("%s on r%d starts at %g, before the database can arrive at %g", j.Name, a.Resource, a.Start, eta)
		}
	}
	if onB == 0 {
		t.Fatal("no search on site B: the case no longer exercises re-staging")
	}
}
