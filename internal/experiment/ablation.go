package experiment

import (
	"context"
	"strconv"
	"sync"

	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

// ablationVariant is one planner configuration under comparison.
type ablationVariant struct {
	name string
	opts policy.Options
}

// ablationVariants are the design choices DESIGN.md calls out.
var ablationVariants = []ablationVariant{
	{"baseline (insertion, pin, greedy)", policy.Options{}},
	{"no insertion (append-only)", policy.Options{NoInsertion: true}},
	{"restart running jobs", policy.Options{RestartRunning: true}},
	{"tie window 0.05", policy.Options{TieWindow: 0.05}},
	{"tie window 0.10", policy.Options{TieWindow: 0.10}},
}

// Ablations compares the planner's design-choice variants over a common
// set of BLAST cases (the workload where adaptive rescheduling matters
// most) and reports each variant's average makespan and improvement over
// its own static plan.
func Ablations(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "ablations",
		Title:  "design-choice ablations on BLAST under a growing grid",
		Header: []string{"variant", "AHEFT makespan", "improvement", "adoptions/case", "n"},
		Notes: []string{
			"restart semantics discards partial work: on the Fig. 5 example it turns the 76 into an unadoptable 82",
			"the static HEFT baseline differs per variant only through NoInsertion",
		},
	}
	for _, v := range ablationVariants {
		v := v
		agg, err := runAblationPoint(cfg, v)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			v.name,
			f2(agg.AHEFT.Mean()),
			pct(agg.Improvement.Mean()),
			f2(agg.Adoptions.Mean()),
			strconv.Itoa(agg.AHEFT.N()),
		})
	}
	return t, nil
}

func runAblationPoint(cfg Config, v ablationVariant) (*pointAgg, error) {
	n := cfg.samples()
	outs := make([]CaseOut, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.workers())
	root := rng.New(cfg.Seed).Split("ablations")
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			r := root.Split("case-" + strconv.Itoa(i))
			sc, err := workload.BlastScenario(workload.AppParams{
				Parallelism: 149, CCR: 0.5, Beta: 0.5,
			}, workload.GridParams{
				InitialResources: 20, ChangeInterval: 400, ChangePct: 0.2,
			}, r)
			if err != nil {
				errs[i] = err
				return
			}
			est := sc.Estimator()
			ctx := context.Background()
			static, err := planner.RunPolicy(ctx, sc.Graph, est, sc.Pool, policy.MustGet("heft"), v.opts)
			if err != nil {
				errs[i] = err
				return
			}
			adaptive, err := planner.RunPolicy(ctx, sc.Graph, est, sc.Pool, policy.MustGet("aheft"), v.opts)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = CaseOut{
				HEFT:      static.Makespan,
				AHEFT:     adaptive.Makespan,
				Adoptions: adaptive.Adoptions(),
			}
		}(i)
	}
	wg.Wait()
	agg := &pointAgg{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		agg.add(outs[i])
	}
	return agg, nil
}
