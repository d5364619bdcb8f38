package planner

import (
	"fmt"
	"slices"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/policy"
	"aheft/internal/schedule"
)

// WhatIfQuery is the paper's §3.3 "What...if..." capacity-planning
// question: what would the workflow's expected makespan become if the
// resource pool changed right now?
type WhatIfQuery struct {
	// Clock is the hypothetical evaluation time within the current
	// schedule's execution.
	Clock float64
	// Add lists hypothetical new resources (their computation costs must
	// be covered by the estimator).
	Add []grid.Resource
	// Remove lists resources hypothetically leaving the pool. Files
	// already produced remain accessible (storage outlives the compute
	// slot); running jobs on removed resources are restarted elsewhere.
	Remove []grid.ID
}

// WhatIfAnswer reports the evaluation's outcome.
type WhatIfAnswer struct {
	// CurrentMakespan is the makespan if nothing changes.
	CurrentMakespan float64
	// NewMakespan is the predicted makespan after rescheduling under the
	// hypothetical pool.
	NewMakespan float64
	// WouldAdopt reports whether the adaptive planner would switch
	// schedules (strict improvement).
	WouldAdopt bool
	// Schedule is the hypothetical schedule.
	Schedule *schedule.Schedule
}

// Delta returns NewMakespan − CurrentMakespan (negative is an
// improvement).
func (a *WhatIfAnswer) Delta() float64 { return a.NewMakespan - a.CurrentMakespan }

// WhatIf evaluates a hypothetical pool change against the currently
// executing schedule s0 at q.Clock, using the same snapshot + reschedule
// machinery as the live planner, without submitting anything. available
// is the real resource set at q.Clock.
func WhatIf(g *dag.Graph, est cost.Estimator, s0 *schedule.Schedule, available []grid.Resource, q WhatIfQuery, opts policy.Options) (*WhatIfAnswer, error) {
	if s0 == nil || s0.Len() != g.Len() {
		return nil, fmt.Errorf("planner: WhatIf needs a complete current schedule")
	}
	removed := make(map[grid.ID]bool, len(q.Remove))
	for _, r := range q.Remove {
		removed[r] = true
	}
	rs := slices.DeleteFunc(slices.Concat(available, q.Add), func(r grid.Resource) bool { return removed[r.ID] })
	if len(rs) == 0 {
		return nil, fmt.Errorf("planner: WhatIf leaves an empty pool")
	}

	k := kernel.New(g, est)
	defer k.Release()
	st := k.NewState(0)
	defer st.Release()
	st.Snapshot(s0, q.Clock, kernel.SnapshotOptions{})
	cur := k.Price(available, st, s0) // the makespan if nothing changes
	// Jobs running on a removed resource cannot finish there, nor any under
	// the restart ablation: restart them under the hypothesis.
	for _, j := range g.Jobs() {
		if st.Pinned(j.ID) && (opts.RestartRunning || removed[s0.MustGet(j.ID).Resource]) {
			st.Unpin(j.ID)
		}
	}
	s1, d, err := Evaluate(k, policy.MustGet("aheft"), rs, st, opts, cur, TriggerArrival, len(q.Add))
	if err != nil {
		return nil, err
	}
	return &WhatIfAnswer{
		CurrentMakespan: d.OldMakespan,
		NewMakespan:     d.NewMakespan,
		WouldAdopt:      d.Adopted,
		Schedule:        s1,
	}, nil
}
