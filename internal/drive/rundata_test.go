package drive

import (
	"context"
	"fmt"
	"math"

	"aheft/internal/cost"
	"aheft/internal/data"
	"aheft/internal/kernel"
	"aheft/internal/workload"
)

// RunData is the data-aware acceptance harness of the drive tests
// (TestDataRoundsBeatOblivious, the parity golden's data row): one
// workflow with a file catalog submitted against a link-constrained
// shared grid, its data-aware plan replayed faithfully against the
// daemon, and the same scenario planned data-obliviously (raw edge
// weights, no catalog) as the baseline. Both schedules are scored by one
// judge — kernel.Price on a kernel bound to the exact costs and the data
// model, which replays placement decisions under the true data semantics
// (derived transfer durations, per-channel serialization, replica reuse)
// — so neither side grades its own homework.
//
// RunData drives one data-aware workflow — tn's Scenario must carry a
// file catalog and the link-constrained pool, which is registered as the
// shared grid cfg.Grid if absent — to completion and scores it against
// the data-oblivious baseline. There is no noise, churn or feedback: the
// row's AdaptiveMakespan is the daemon's data-aware plan priced under
// the true data semantics, BaselineMakespan the data-oblivious plan of
// the identical scenario priced the same way. claims is the grid's
// transfer-reservation count while the plan was pending; zero means the
// round never exercised the data path.
func RunData(ctx context.Context, cfg Config, tn Tenant) (out *Outcome, claims int, err error) {
	sc := tn.Scenario
	if sc == nil || sc.Files == nil {
		return nil, 0, fmt.Errorf("drive: data round needs a scenario with a file catalog")
	}
	c := &cfg.Client
	if err := c.EnsureGrid(ctx, cfg.Grid, sc.Pool); err != nil {
		return nil, 0, err
	}
	m, err := data.NewModel(sc.Files, sc.Pool, sc.Graph, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("drive: data model: %w", err)
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
		return nil, 0, fmt.Errorf("drive: oblivious plan: %w", err)
	}
	row.BaselineMakespan = ref.Price(all, nil, oblivious)

	// Data-aware run: submit with the catalog, watch the staged claims,
	// replay the plan faithfully, and verify the grid drains.
	body, err := Submission(cfg.Grid, nil, tn)
	if err != nil {
		return nil, 0, err
	}
	if row.ID, _, err = c.Submit(ctx, body); err != nil {
		return nil, 0, err
	}
	plan, err := c.Plan(ctx, row.ID)
	if err != nil {
		return nil, 0, err
	}
	staged, err := c.Grid(ctx, cfg.Grid)
	if err != nil {
		return nil, 0, err
	}
	ack, err := c.Report(ctx, row.ID, Replay(plan, math.Inf(1), nil))
	if err != nil {
		return nil, 0, err
	}
	if !ack.Done {
		return nil, 0, fmt.Errorf("drive: workflow %s not done after faithful replay", row.ID)
	}
	st, err := c.Status(ctx, row.ID)
	if err != nil {
		return nil, 0, err
	}
	if st.State != "done" {
		return nil, 0, fmt.Errorf("drive: workflow %s ended %s: %s", row.ID, st.State, st.Error)
	}
	row.DaemonMakespan = st.Makespan
	aware, err := planSchedule(plan, sc.Graph)
	if err != nil {
		return nil, 0, err
	}
	row.AdaptiveMakespan = ref.Price(all, nil, aware)

	final, err := c.Grid(ctx, cfg.Grid)
	if err != nil {
		return nil, 0, err
	}
	return &Outcome{
		Tenants:                   []Row{row},
		FinalReservations:         final.Reservations,
		FinalTransferReservations: final.TransferReservations,
	}, staged.TransferReservations, nil
}
