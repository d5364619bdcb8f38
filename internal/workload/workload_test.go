package workload

import (
	"fmt"
	"math"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/rng"
)

func TestSampleDAGShape(t *testing.T) {
	g := SampleDAG()
	if g.Len() != 10 {
		t.Fatalf("jobs = %d, want 10", g.Len())
	}
	if g.NumEdges() != 15 {
		t.Fatalf("edges = %d, want 15", g.NumEdges())
	}
	if es := g.Entries(); len(es) != 1 || g.Job(es[0]).Name != "n1" {
		t.Fatalf("entry = %v", es)
	}
	if xs := g.Exits(); len(xs) != 1 || g.Job(xs[0]).Name != "n10" {
		t.Fatalf("exit = %v", xs)
	}
	// Spot-check published edge weights.
	for _, e := range []struct {
		from, to string
		want     float64
	}{
		{"n1", "n2", 18}, {"n1", "n4", 9}, {"n4", "n8", 27}, {"n9", "n10", 13},
	} {
		w, ok := g.EdgeData(g.JobByName(e.from), g.JobByName(e.to))
		if !ok || w != e.want {
			t.Errorf("edge (%s,%s) = %g,%v want %g", e.from, e.to, w, ok, e.want)
		}
	}
}

func TestSampleTableValues(t *testing.T) {
	tb := SampleTable()
	if tb.Jobs() != 10 || tb.Resources() != 4 {
		t.Fatalf("table shape %dx%d", tb.Jobs(), tb.Resources())
	}
	if tb.Comp(0, 2) != 9 { // n1 on r3
		t.Fatalf("w(n1,r3) = %g, want 9", tb.Comp(0, 2))
	}
	if tb.Comp(9, 1) != 7 { // n10 on r2
		t.Fatalf("w(n10,r2) = %g, want 7", tb.Comp(9, 1))
	}
}

func TestSampleScenarioPool(t *testing.T) {
	sc := SampleScenario()
	if len(sc.Pool.Initial()) != 3 {
		t.Fatal("want 3 initial resources")
	}
	if ct := sc.Pool.ChangeTimes(); len(ct) != 1 || ct[0] != 15 {
		t.Fatalf("change times = %v, want [15]", ct)
	}
}

func TestRandomDAGShape(t *testing.T) {
	root := rng.New(1)
	for i := 0; i < 30; i++ {
		r := root.Split(fmt.Sprintf("case-%d", i))
		v := 5 + r.IntN(96)
		p := RandomParams{Jobs: v, CCR: 1, OutDegree: 0.2, Beta: 0.5}
		g, err := RandomDAG(p, r)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != v {
			t.Fatalf("jobs = %d, want %d", g.Len(), v)
		}
		if len(g.Entries()) != 1 || len(g.Exits()) != 1 {
			t.Fatalf("entries/exits = %d/%d, want 1/1", len(g.Entries()), len(g.Exits()))
		}
		if len(g.TopoOrder()) != v {
			t.Fatal("not a validated DAG")
		}
		maxOut := int(math.Max(1, math.Round(p.OutDegree*float64(v))))
		for _, j := range g.Jobs() {
			// The connectivity pass can add one extra edge (to the exit)
			// beyond the sampled out-degree.
			if d := len(g.SuccEdges(j.ID)); d > maxOut+1 {
				t.Fatalf("out degree %d exceeds bound %d", d, maxOut)
			}
		}
	}
}

func TestRandomDAGDeterministic(t *testing.T) {
	p := RandomParams{Jobs: 40, CCR: 2, OutDegree: 0.3, Beta: 0.5}
	a, err := RandomDAG(p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomDAG(p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a.MarshalJSON()
	db, _ := b.MarshalJSON()
	if string(da) != string(db) {
		t.Fatal("same seed produced different DAGs")
	}
}

func TestRandomDAGRealisedCCR(t *testing.T) {
	r := rng.New(99)
	p := RandomParams{Jobs: 400, CCR: 5, OutDegree: 0.1, Beta: 0}
	g, err := RandomDAG(p, r)
	if err != nil {
		t.Fatal(err)
	}
	table, err := SampleCosts(g, 10, 0, 100, PerJob, r)
	if err != nil {
		t.Fatal(err)
	}
	got := cost.CCR(g, cost.Exact(table), grid.StaticPool(10).Initial())
	if got < 2.5 || got > 8 {
		t.Fatalf("realised CCR = %g, want around 5", got)
	}
}

func TestRandomDAGValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := RandomDAG(RandomParams{Jobs: 1, CCR: 1, OutDegree: 0.2}, r); err == nil {
		t.Fatal("Jobs=1 accepted")
	}
	if _, err := RandomDAG(RandomParams{Jobs: 10, CCR: -1, OutDegree: 0.2}, r); err == nil {
		t.Fatal("negative CCR accepted")
	}
	if _, err := RandomDAG(RandomParams{Jobs: 10, CCR: 1, OutDegree: 0}, r); err == nil {
		t.Fatal("zero out-degree accepted")
	}
}

func TestBlastShape(t *testing.T) {
	r := rng.New(5)
	for _, k := range []int{1, 2, 10, 100} {
		g, err := BLAST(AppParams{Parallelism: k, CCR: 1, Beta: 0.5}, r)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != BlastJobs(k) {
			t.Fatalf("k=%d: jobs = %d, want %d", k, g.Len(), BlastJobs(k))
		}
		if g.Width() != k {
			t.Fatalf("k=%d: width = %d, want %d", k, g.Width(), k)
		}
		if lv := g.Levels(); len(lv) != 4 {
			t.Fatalf("k=%d: levels = %d, want 4 (split, blast, parse, merge)", k, len(lv))
		}
		ops := map[string]bool{}
		for _, j := range g.Jobs() {
			ops[j.Op] = true
		}
		if len(ops) != 4 {
			t.Fatalf("k=%d: %d distinct operations, want 4", k, len(ops))
		}
	}
}

func TestBlastSixStepExample(t *testing.T) {
	// The paper's Fig. 6: two-way parallelism → six jobs.
	g, err := BLAST(AppParams{Parallelism: 2, CCR: 1, Beta: 0.5}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 6 {
		t.Fatalf("six-step example has %d jobs", g.Len())
	}
}

func TestWien2kShape(t *testing.T) {
	r := rng.New(5)
	for _, k := range []int{1, 2, 10, 100} {
		g, err := WIEN2K(AppParams{Parallelism: k, CCR: 1, Beta: 0.5}, r)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != Wien2kJobs(k) {
			t.Fatalf("k=%d: jobs = %d, want %d", k, g.Len(), Wien2kJobs(k))
		}
		if g.Width() != k {
			t.Fatalf("k=%d: width = %d, want %d", k, g.Width(), k)
		}
		// LAPW2_FERMI is the lone job on its level: the serialisation
		// bottleneck the paper blames for WIEN2K's modest improvements.
		fermi := g.JobByName("LAPW2_FERMI")
		if len(g.Preds(fermi)) != k || len(g.SuccEdges(fermi)) != k {
			t.Fatalf("k=%d: LAPW2_FERMI degree %d/%d, want %d/%d",
				k, len(g.Preds(fermi)), len(g.SuccEdges(fermi)), k, k)
		}
	}
}

func TestMontageShape(t *testing.T) {
	r := rng.New(5)
	for _, k := range []int{1, 2, 8} {
		g, err := Montage(AppParams{Parallelism: k, CCR: 1, Beta: 0.5}, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.TopoOrder()) != g.Len() {
			t.Fatalf("k=%d: not a validated DAG", k)
		}
		if len(g.Exits()) != 1 {
			t.Fatalf("k=%d: exits = %v", k, g.Exits())
		}
	}
}

func TestParallelismInverses(t *testing.T) {
	for _, jobs := range []int{200, 400, 600, 800, 1000} {
		if got := BlastJobs(BlastParallelism(jobs)); got != jobs {
			t.Errorf("BLAST: %d jobs round-trips to %d", jobs, got)
		}
		if got := Wien2kJobs(Wien2kParallelism(jobs)); got != jobs {
			t.Errorf("WIEN2K: %d jobs round-trips to %d", jobs, got)
		}
	}
	if BlastParallelism(2) != 1 || Wien2kParallelism(5) != 1 {
		t.Fatal("parallelism floor broken")
	}
}

func TestSampleCostsBeta(t *testing.T) {
	r := rng.New(11)
	g, err := RandomDAG(RandomParams{Jobs: 50, CCR: 1, OutDegree: 0.2, Beta: 0}, r)
	if err != nil {
		t.Fatal(err)
	}
	// β = 0: homogeneous — every row constant.
	tb, err := SampleCosts(g, 6, 0, 100, PerJob, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range g.Jobs() {
		w0 := tb.Comp(j.ID, 0)
		for res := 1; res < 6; res++ {
			if tb.Comp(j.ID, grid.ID(res)) != w0 {
				t.Fatalf("β=0 but job %d costs differ across resources", j.ID)
			}
		}
	}
	// β = 1: heterogeneous — expect variation for most jobs.
	tb, err = SampleCosts(g, 6, 1, 100, PerJob, r)
	if err != nil {
		t.Fatal(err)
	}
	varies := 0
	for _, j := range g.Jobs() {
		if tb.Comp(j.ID, 0) != tb.Comp(j.ID, 1) {
			varies++
		}
	}
	if varies < 40 {
		t.Fatalf("β=1 but only %d/50 jobs vary across resources", varies)
	}
}

func TestSampleCostsPerOp(t *testing.T) {
	r := rng.New(13)
	g, err := BLAST(AppParams{Parallelism: 20, CCR: 1, Beta: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := SampleCosts(g, 5, 1, 100, PerOp, r)
	if err != nil {
		t.Fatal(err)
	}
	// All blastall jobs cost the same on each resource.
	var blastJobs []dag.JobID
	for _, j := range g.Jobs() {
		if j.Op == "blastall" {
			blastJobs = append(blastJobs, j.ID)
		}
	}
	if len(blastJobs) != 20 {
		t.Fatalf("found %d blastall jobs, want 20", len(blastJobs))
	}
	first := blastJobs[0]
	for _, id := range blastJobs[1:] {
		for res := grid.ID(0); res < 5; res++ {
			if tb.Comp(first, res) != tb.Comp(id, res) {
				t.Fatalf("PerOp: blastall jobs %d and %d differ on r%d", first, id, res)
			}
		}
	}
	// Different operations should (almost surely) differ somewhere.
	split := g.JobByName("FileBreaker")
	if tb.Comp(split, 0) == tb.Comp(first, 0) && tb.Comp(split, 1) == tb.Comp(first, 1) {
		t.Log("warning: FileBreaker and blastall sampled identical costs (unlikely)")
	}
}

func TestSampleCostsErrors(t *testing.T) {
	r := rng.New(1)
	g := SampleDAG()
	if _, err := SampleCosts(g, 0, 0.5, 100, PerJob, r); err == nil {
		t.Fatal("zero resources accepted")
	}
	if _, err := SampleCosts(g, 2, 0.5, 100, CostModel(9), r); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestBuildScenarioAutoHorizon(t *testing.T) {
	r := rng.New(17)
	g, err := RandomDAG(RandomParams{Jobs: 40, CCR: 1, OutDegree: 0.3, Beta: 0.5}, r)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario(g, GridParams{
		InitialResources: 5, ChangeInterval: 100, ChangePct: 0.2,
	}, 0.5, 100, 1, PerJob, r)
	if err != nil {
		t.Fatal(err)
	}
	events := len(sc.Pool.ChangeTimes())
	if events < 1 || events > HorizonEventCap {
		t.Fatalf("auto events = %d, want within [1,%d]", events, HorizonEventCap)
	}
	if sc.Table.Resources() != sc.Pool.Size() {
		t.Fatalf("cost table covers %d resources, pool has %d", sc.Table.Resources(), sc.Pool.Size())
	}
	if sc.Table.Jobs() != g.Len() {
		t.Fatal("cost table rows != jobs")
	}
}

func TestAppScenarios(t *testing.T) {
	r := rng.New(23)
	gp := GridParams{InitialResources: 4, ChangeInterval: 200, ChangePct: 0.25, MaxEvents: 2}
	for name, build := range map[string]func() (*Scenario, error){
		"blast":  func() (*Scenario, error) { return BlastScenario(AppParams{Parallelism: 10, CCR: 1, Beta: 0.5}, gp, r) },
		"wien2k": func() (*Scenario, error) { return Wien2kScenario(AppParams{Parallelism: 10, CCR: 1, Beta: 0.5}, gp, r) },
		"montage": func() (*Scenario, error) {
			return MontageScenario(AppParams{Parallelism: 10, CCR: 1, Beta: 0.5}, gp, r)
		},
	} {
		sc, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Table.Jobs() != sc.Graph.Len() || sc.Table.Resources() != sc.Pool.Size() {
			t.Fatalf("%s: inconsistent scenario", name)
		}
	}
}

func TestAppParamsValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := BLAST(AppParams{Parallelism: 0, CCR: 1}, r); err == nil {
		t.Fatal("zero parallelism accepted")
	}
	if _, err := WIEN2K(AppParams{Parallelism: 2, CCR: -1}, r); err == nil {
		t.Fatal("negative CCR accepted")
	}
}
