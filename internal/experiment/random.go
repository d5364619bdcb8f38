package experiment

import (
	"context"
	"fmt"
	"strconv"

	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

// randomCase draws one case from the paper's random-DAG parameter space
// (Table 2), applies the experiment's fixed dimension via fix, and builds
// the scenario.
func randomCase(r *rng.Source, fix func(p *workload.RandomParams, gp *workload.GridParams)) (*workload.Scenario, error) {
	p := workload.RandomParams{
		Jobs:      choiceInt(r, RandomJobs),
		CCR:       choiceF64(r, CCRs),
		OutDegree: choiceF64(r, OutDegrees),
		Beta:      choiceF64(r, Betas),
		Alpha:     choiceF64(r, workload.Alphas),
	}
	gp := workload.GridParams{
		InitialResources: choiceInt(r, RandomPools),
		ChangeInterval:   choiceF64(r, Intervals),
		ChangePct:        choiceF64(r, ChangePcts),
	}
	if fix != nil {
		fix(&p, &gp)
	}
	return workload.RandomScenario(p, gp, r)
}

// Fig5 reproduces the worked example of Figs. 4–5: the ten-job sample DAG
// with r4 joining at t = 15.
func Fig5(cfg Config) (*Table, error) {
	sc := workload.SampleScenario()
	est := sc.Estimator()
	ctx := context.Background()
	static, err := planner.RunPolicy(ctx, sc.Graph, est, sc.Pool, policy.MustGet("heft"), policy.Options{})
	if err != nil {
		return nil, err
	}
	greedy, err := planner.RunPolicy(ctx, sc.Graph, est, sc.Pool, policy.MustGet("aheft"), policy.Options{})
	if err != nil {
		return nil, err
	}
	tw := cfg.TieWindow
	if tw <= 0 {
		tw = 0.05
	}
	explored, err := planner.RunPolicy(ctx, sc.Graph, est, sc.Pool, policy.MustGet("aheft"), policy.Options{TieWindow: tw})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "fig5",
		Title:  "worked example: sample DAG, r4 arrives at t=15 (paper: HEFT 80, AHEFT 76)",
		Header: []string{"strategy", "makespan", "paper"},
		Rows: [][]string{
			{"HEFT (static)", f2(static.Makespan), "80"},
			{"AHEFT (greedy Fig.3)", f2(greedy.Makespan), "—"},
			{fmt.Sprintf("AHEFT (tie window %.2f)", tw), f2(explored.Makespan), "76"},
		},
		Notes: []string{
			"pure EFT-greedy placement misses the published 76 by one locally-attractive move;",
			"near-tie rank exploration (or exhaustive search, see core's Fig5 test) recovers it exactly",
		},
	}, nil
}

// Headline reproduces the §4.2 summary: average makespan of HEFT, AHEFT
// and dynamic Min-Min over the random parameter space (paper: 4075, 3911,
// 12352).
func Headline(cfg Config) (*Table, error) {
	agg, err := runPoint(cfg, "headline", "all", true,
		func(r *rng.Source) (*workload.Scenario, error) { return randomCase(r, nil) })
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "headline",
		Title:  "random DAGs: average makespan by strategy (paper: HEFT 4075, AHEFT 3911, Min-Min 12352)",
		Header: []string{"strategy", "avg makespan", "±95% CI", "n"},
		Rows: [][]string{
			{"HEFT (static)", f2(agg.HEFT.Mean()), f2(agg.HEFT.CI95()), strconv.Itoa(agg.HEFT.N())},
			{"AHEFT (adaptive)", f2(agg.AHEFT.Mean()), f2(agg.AHEFT.CI95()), strconv.Itoa(agg.AHEFT.N())},
			{"Min-Min (dynamic)", f2(agg.MinMin.Mean()), f2(agg.MinMin.CI95()), strconv.Itoa(agg.MinMin.N())},
		},
		Notes: []string{"absolute scale depends on the unreported ω_DAG; compare ratios and ordering"},
	}, nil
}

// Table3 reproduces "Improvement rate with various CCRs" on random DAGs
// (paper: 0.4%, 0.5%, 0.7%, 3.2%, 7.7%).
func Table3(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "random DAGs: AHEFT improvement rate over HEFT vs CCR (paper: 0.4/0.5/0.7/3.2/7.7%)",
		Header: []string{"CCR", "improvement", "HEFT", "AHEFT", "n"},
	}
	for _, ccr := range CCRs {
		ccr := ccr
		agg, err := runPoint(cfg, "table3", fmt.Sprintf("ccr=%g", ccr), false,
			func(r *rng.Source) (*workload.Scenario, error) {
				return randomCase(r, func(p *workload.RandomParams, gp *workload.GridParams) { p.CCR = ccr })
			})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", ccr), pct(agg.Improvement.Mean()),
			f2(agg.HEFT.Mean()), f2(agg.AHEFT.Mean()), strconv.Itoa(agg.HEFT.N()),
		})
	}
	return t, nil
}

// Table4 reproduces "Improvement rate with various total number of jobs"
// on random DAGs (paper: 2.9%, 3.9%, 4.3%, 4.2%, 4.1%).
func Table4(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "table4",
		Title:  "random DAGs: AHEFT improvement rate over HEFT vs job count (paper: 2.9/3.9/4.3/4.2/4.1%)",
		Header: []string{"jobs", "improvement", "HEFT", "AHEFT", "n"},
	}
	for _, v := range RandomJobs {
		v := v
		agg, err := runPoint(cfg, "table4", fmt.Sprintf("v=%d", v), false,
			func(r *rng.Source) (*workload.Scenario, error) {
				return randomCase(r, func(p *workload.RandomParams, gp *workload.GridParams) { p.Jobs = v })
			})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(v), pct(agg.Improvement.Mean()),
			f2(agg.HEFT.Mean()), f2(agg.AHEFT.Mean()), strconv.Itoa(agg.HEFT.N()),
		})
	}
	return t, nil
}
