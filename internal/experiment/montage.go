package experiment

import (
	"strconv"
	"sync"

	"aheft/internal/rng"
	"aheft/internal/workload"
)

// MontageExt is an extension beyond the paper's evaluation: the paper
// names Montage as a third well-balanced, highly parallel scientific
// workflow (with only 11 unique operations); this experiment runs the
// Montage-like generator alongside BLAST and WIEN2K under the same Table 5
// grid dynamics and compares their adaptive-rescheduling benefit. Montage's
// shape — two wide parallel sections (mProject, mBackground) separated by
// a short serial fit/model spine — sits between BLAST (no spine) and
// WIEN2K (long spine), and so should its improvement.
func MontageExt(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "montage",
		Title:  "extension: Montage-like workflow vs the paper's applications",
		Header: []string{"application", "HEFT", "AHEFT", "improvement", "width", "levels", "n"},
		Notes: []string{
			"Montage is cited (not evaluated) by the paper; expectation: improvement between WIEN2K's and BLAST's",
			"width and levels are the largest over the row's samples",
		},
	}
	type app struct {
		name  string
		build func(jobs int, ccr, beta float64, gp workload.GridParams, r *rng.Source) (*workload.Scenario, error)
	}
	apps := []app{
		{"BLAST", func(jobs int, ccr, beta float64, gp workload.GridParams, r *rng.Source) (*workload.Scenario, error) {
			return workload.BlastScenario(workload.AppParams{
				Parallelism: workload.BlastParallelism(jobs), CCR: ccr, Beta: beta,
			}, gp, r)
		}},
		{"Montage", func(jobs int, ccr, beta float64, gp workload.GridParams, r *rng.Source) (*workload.Scenario, error) {
			p := jobs / 4 // ≈4 jobs per parallel unit (project, diff, background, overhead)
			if p < 1 {
				p = 1
			}
			return workload.MontageScenario(workload.AppParams{Parallelism: p, CCR: ccr, Beta: beta}, gp, r)
		}},
		{"WIEN2K", func(jobs int, ccr, beta float64, gp workload.GridParams, r *rng.Source) (*workload.Scenario, error) {
			return workload.Wien2kScenario(workload.AppParams{
				Parallelism: workload.Wien2kParallelism(jobs), CCR: ccr, Beta: beta,
			}, gp, r)
		}},
	}
	for _, a := range apps {
		a := a
		// runPoint builds its samples on parallel goroutines: the shape
		// columns are a max folded under a lock, so they do not depend on
		// which sample was built last.
		var mu sync.Mutex
		var width, levels int
		agg, err := runPoint(cfg, "montage", a.name, false, func(r *rng.Source) (*workload.Scenario, error) {
			jobs := choiceInt(r, cfg.appJobs())
			ccr := choiceF64(r, CCRs)
			beta := choiceF64(r, Betas)
			gp := workload.GridParams{
				InitialResources: choiceInt(r, AppPools),
				ChangeInterval:   choiceF64(r, Intervals),
				ChangePct:        choiceF64(r, ChangePcts),
			}
			sc, err := a.build(jobs, ccr, beta, gp, r)
			if err == nil {
				mu.Lock()
				width = max(width, sc.Graph.Width())
				levels = max(levels, len(sc.Graph.Levels()))
				mu.Unlock()
			}
			return sc, err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			a.name,
			f2(agg.HEFT.Mean()), f2(agg.AHEFT.Mean()), pct(agg.Improvement.Mean()),
			strconv.Itoa(width), strconv.Itoa(levels), strconv.Itoa(agg.HEFT.N()),
		})
	}
	return t, nil
}
