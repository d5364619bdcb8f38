package drive

import (
	"context"
	"fmt"
	"math"
	"sort"

	"aheft/internal/cost"
	"aheft/internal/data"
	"aheft/internal/kernel"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// This file is the data-aware acceptance harness: one workflow with a
// file catalog submitted against a link-constrained shared grid, its
// data-aware plan replayed faithfully against the daemon, and the same
// scenario planned data-obliviously (raw edge weights, no catalog) as
// the baseline. Both schedules are scored by one judge — kernel.Price on
// a kernel bound to the exact costs and the data model, which replays
// placement decisions under the true data semantics (derived transfer
// durations, per-channel serialization, replica reuse) — so neither side
// grades its own homework.

// Replay builds the faithful execution report of plan up to clock —
// every job starting and finishing exactly when planned; starts strictly
// before clock, finishes at or before it — skipping events the applied
// prefix already covered. A +Inf clock with no prefix is the whole run; a
// +Inf clock with a pre-crash prefix is exactly the remaining events.
// Starts sort ahead of finishes at equal times, so the daemon knows a job
// holds its slot before it hears a neighbour released one.
func Replay(plan *wire.Plan, clock float64, applied []wire.ReportEvent) []wire.ReportEvent {
	type key struct {
		kind string
		job  int
	}
	done := make(map[key]bool, len(applied))
	for _, ev := range applied {
		done[key{ev.Kind, ev.Job}] = true
	}
	var evs []wire.ReportEvent
	for _, a := range plan.Assignments {
		if a.Start < clock && !done[key{wire.ReportJobStarted, a.Job}] {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobStarted, Time: a.Start, Job: a.Job, Resource: a.Resource,
			})
		}
		if a.Finish <= clock && !done[key{wire.ReportJobFinished, a.Job}] {
			evs = append(evs, wire.ReportEvent{
				Kind: wire.ReportJobFinished, Time: a.Finish, Job: a.Job, Resource: a.Resource, Duration: a.Finish - a.Start,
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Kind == wire.ReportJobStarted && evs[j].Kind != wire.ReportJobStarted
	})
	return evs
}

// RunData drives one data-aware workflow — tn's Scenario must carry a
// file catalog and the link-constrained pool, which is registered as the
// shared grid cfg.Grid if absent — to completion and scores it against
// the data-oblivious baseline. There is no noise, churn or feedback: the
// row's AdaptiveMakespan is the daemon's data-aware plan priced under
// the true data semantics, BaselineMakespan the data-oblivious plan of
// the identical scenario priced the same way.
func RunData(ctx context.Context, cfg Config, tn Tenant) (*Outcome, error) {
	sc := tn.Scenario
	if sc == nil || sc.Files == nil {
		return nil, fmt.Errorf("drive: data round needs a scenario with a file catalog")
	}
	c := &cfg.Client
	if err := c.EnsureGrid(ctx, cfg.Grid, sc.Pool); err != nil {
		return nil, err
	}
	m, err := data.NewModel(sc.Files, sc.Pool, sc.Graph, 0)
	if err != nil {
		return nil, fmt.Errorf("drive: data model: %w", err)
	}
	ref := kernel.New(sc.Graph, cost.Exact(sc.Table))
	defer ref.Release()
	ref.SetData(m)
	all := sc.Pool.AvailableAt(math.Inf(1))
	row := Row{Name: tn.Name, Jobs: sc.Graph.Len()}

	// Data-oblivious baseline: the pre-data-model behaviour — plan on the
	// raw edge weights alone, then pay the true transfer costs.
	bare := tn
	bare.Scenario = &workload.Scenario{Graph: sc.Graph, Table: sc.Table, Pool: sc.Pool}
	oblivious, err := isolatedPlan(bare, sc.Pool)
	if err != nil {
		return nil, fmt.Errorf("drive: oblivious plan: %w", err)
	}
	row.BaselineMakespan = ref.Price(all, nil, oblivious)

	// Data-aware run: submit with the catalog, watch the staged claims,
	// replay the plan faithfully, and verify the grid drains.
	body, err := Submission(cfg.Grid, nil, tn)
	if err != nil {
		return nil, err
	}
	if row.ID, _, err = c.Submit(ctx, body); err != nil {
		return nil, err
	}
	plan, err := c.Plan(ctx, row.ID)
	if err != nil {
		return nil, err
	}
	staged, err := c.Grid(ctx, cfg.Grid)
	if err != nil {
		return nil, err
	}
	ack, err := c.Report(ctx, row.ID, Replay(plan, math.Inf(1), nil))
	if err != nil {
		return nil, err
	}
	if !ack.Done {
		return nil, fmt.Errorf("drive: workflow %s not done after faithful replay", row.ID)
	}
	st, err := c.Status(ctx, row.ID)
	if err != nil {
		return nil, err
	}
	if st.State != "done" {
		return nil, fmt.Errorf("drive: workflow %s ended %s: %s", row.ID, st.State, st.Error)
	}
	row.DaemonMakespan = st.Makespan
	aware, err := planSchedule(plan, sc.Graph)
	if err != nil {
		return nil, err
	}
	row.AdaptiveMakespan = ref.Price(all, nil, aware)

	final, err := c.Grid(ctx, cfg.Grid)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Tenants:                   []Row{row},
		PlannedTransferClaims:     staged.TransferReservations,
		FinalReservations:         final.Reservations,
		FinalTransferReservations: final.TransferReservations,
	}, nil
}
