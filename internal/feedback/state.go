package feedback

import (
	"fmt"
	"math"

	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/jsonscan"
	"aheft/internal/occupancy"
	"aheft/internal/planner"
	"aheft/internal/schedule"
	"aheft/internal/wire"
)

// HistoryDelta is one measured-runtime observation fed into the tenant's
// Performance History Repository. The durability layer journals the
// deltas of every Apply batch (Outcome.Recorded): a recovered repository
// is rebuilt by importing the last snapshot's cells and replaying the
// deltas in log order, reproducing the streaming statistics bit for bit.
type HistoryDelta struct {
	Op       string  `json:"op"`
	Resource int     `json:"resource"`
	Duration float64 `json:"duration"`
}

// TransferState is one entry of the kernel's file-availability ledger
// (Eq. 1): the (From → To) file is available on Resource at time At.
type TransferState struct {
	From     int     `json:"from"`
	To       int     `json:"to"`
	Resource int     `json:"resource"`
	At       float64 `json:"at"`
}

// TrackerState is the serialisable form of a Tracker's mutable run
// state — everything Restore needs, on top of the (re-derivable) Config,
// to reproduce the tracker exactly. ExportState → Restore → ExportState
// is the identity; the recovery property tests pin that down.
//
// The snapshot's pinned set is NOT persisted: syncPins rebuilds it from
// phase/startAt/pinDur before every evaluation, so it carries no
// independent information.
type TrackerState struct {
	Generation  int               `json:"generation"`
	Initial     float64           `json:"initial"`
	Clock       float64           `json:"clock"`
	Assignments []wire.Assignment `json:"assignments"`
	Phase       []uint8           `json:"phase"`
	StartAt     []float64         `json:"start_at"`
	StartRes    []int             `json:"start_res"`
	FinishAt    []float64         `json:"finish_at"`
	PinDur      []float64         `json:"pin_dur"`
	Avail       []bool            `json:"avail"`
	Decisions   []wire.Decision   `json:"decisions,omitempty"`
	Adoptions   int               `json:"adoptions"`
	Done        bool              `json:"done"`
	Makespan    float64           `json:"makespan"`
	Transfers   []TransferState   `json:"transfers,omitempty"`
	// Reservations is the workflow's shared-grid reservation set as the
	// ledger held it at export time (nil off-grid). Restore republishes
	// these verbatim rather than recomputing from estimates, so a grid
	// ledger reassembled from its restored residents is bit-identical to
	// the one that never crashed even where estimate drift would retime
	// a running job's expected finish.
	Reservations []occupancy.Reservation `json:"reservations,omitempty"`
}

// ExportState snapshots the tracker's mutable run state. The caller owns
// the result; the tracker is unchanged.
func (t *Tracker) ExportState() *TrackerState {
	n := t.g.Len()
	st := &TrackerState{
		Generation: t.generation,
		Initial:    t.initial,
		Clock:      t.clock,
		Phase:      make([]uint8, n),
		StartAt:    make([]float64, n),
		StartRes:   make([]int, n),
		FinishAt:   make([]float64, n),
		PinDur:     make([]float64, n),
		Avail:      make([]bool, t.pool.Size()),
		Adoptions:  t.adoptions,
		Done:       t.done,
		Makespan:   t.makespan,
	}
	for j := 0; j < n; j++ {
		st.Phase[j] = uint8(t.phase[j])
		st.StartAt[j] = t.startAt[j]
		st.StartRes[j] = int(t.startRes[j])
		st.FinishAt[j] = t.finishAt[j]
		st.PinDur[j] = t.pinDur[j]
	}
	copy(st.Avail, t.avail)
	as := t.sched.Assignments()
	st.Assignments = make([]wire.Assignment, 0, len(as))
	for _, a := range as {
		st.Assignments = append(st.Assignments, wire.Assignment{
			Job: int(a.Job), Resource: int(a.Resource), Start: a.Start, Finish: a.Finish,
		})
	}
	// Assignments() orders by start time; re-sort by job so the exported
	// form is canonical regardless of schedule shape.
	sortAssignmentsByJob(st.Assignments)
	if len(t.decisions) > 0 {
		st.Decisions = make([]wire.Decision, 0, len(t.decisions))
		for _, d := range t.decisions {
			st.Decisions = append(st.Decisions, DecisionToWire(d))
		}
	}
	t.ks.ForEachTransfer(func(from, to dag.JobID, r grid.ID, at float64) {
		st.Transfers = append(st.Transfers, TransferState{
			From: int(from), To: int(to), Resource: int(r), At: at,
		})
	})
	if t.occ != nil {
		st.Reservations = t.occ.Own()
	}
	return st
}

// JobRow is one job's execution progress inside a StatePatch: the
// job's entries of the five per-job TrackerState arrays.
type JobRow struct {
	Job      int     `json:"job"`
	Phase    uint8   `json:"phase"`
	StartAt  float64 `json:"start_at"`
	StartRes int     `json:"start_res"`
	FinishAt float64 `json:"finish_at"`
	PinDur   float64 `json:"pin_dur"`
}

// ListPut is one ListPatch insertion: V lands at index At of the
// patched list.
type ListPut[T comparable] struct {
	At int `json:"at"`
	V  T   `json:"v"`
}

// ListPatch rewrites one ordered list into another: the base entries at
// the (ascending) indices Del are dropped, the survivors keep their
// order, and each Put entry is inserted at its (ascending) final index.
// A changed entry is a Del plus a Put. Purely positional on the way in,
// so applying needs no notion of entry identity; diffList finds the
// survivors by value.
type ListPatch[T comparable] struct {
	Del []int        `json:"del,omitempty"`
	Put []ListPut[T] `json:"put,omitempty"`
}

// StatePatch is the difference between two exports of one tracker:
// what the durability layer journals per report instead of the whole
// TrackerState. prev.Patch(DiffState(prev, cur)) equals cur exactly.
// The scalars are carried whole; everything sized by the workflow is
// carried as its changed part only.
type StatePatch struct {
	Generation int     `json:"generation"`
	Initial    float64 `json:"initial"`
	Clock      float64 `json:"clock"`
	Adoptions  int     `json:"adoptions"`
	Done       bool    `json:"done,omitempty"`
	Makespan   float64 `json:"makespan"`
	// Jobs holds the per-job rows that changed.
	Jobs []JobRow `json:"jobs,omitempty"`
	// Avail lists the resource indices whose availability flipped.
	Avail []int `json:"avail,omitempty"`
	// Assignments holds the changed placements (each replaces the
	// assignment of its Job).
	Assignments []wire.Assignment `json:"assignments,omitempty"`
	// Decisions is the tail appended to the decision log.
	Decisions []wire.Decision `json:"decisions,omitempty"`
	// Transfers and Reservations are nil when the list did not change.
	Transfers    *ListPatch[TransferState]         `json:"transfers,omitempty"`
	Reservations *ListPatch[occupancy.Reservation] `json:"reservations,omitempty"`
}

// DecodeDelta and DecodePatch decode the object at the scanner into their
// argument as json.Unmarshal would: the two documents all but a workflow's
// first state record are made of, so the ones recovery reads by the
// thousand (server.walState; the parity fuzz there holds them to it).
func DecodeDelta(sc *jsonscan.Scanner, d *HistoryDelta) {
	sc.Object("op", &d.Op, "resource", &d.Resource, "duration", &d.Duration)
}

func DecodePatch(sc *jsonscan.Scanner, p *StatePatch) {
	sc.Object("generation", &p.Generation, "initial", &p.Initial, "clock", &p.Clock,
		"adoptions", &p.Adoptions, "done", &p.Done, "makespan", &p.Makespan,
		"jobs", func() {
			p.Jobs = jsonscan.Array(sc, p.Jobs, func(r *JobRow) {
				sc.Object("job", &r.Job, "phase", &r.Phase, "start_at", &r.StartAt, "start_res", &r.StartRes,
					"finish_at", &r.FinishAt, "pin_dur", &r.PinDur)
			})
		},
		"avail", func() { p.Avail = jsonscan.Array(sc, p.Avail, func(i *int) { *i = sc.Int() }) },
		"assignments", func() {
			p.Assignments = jsonscan.Array(sc, p.Assignments, func(a *wire.Assignment) { wire.DecodeAssignment(sc, a) })
		},
		"decisions", func() {
			p.Decisions = jsonscan.Array(sc, p.Decisions, func(d *wire.Decision) { wire.DecodeDecision(sc, d) })
		},
		"transfers", func() {
			decodeListPatch(sc, &p.Transfers, func(t *TransferState) {
				sc.Object("from", &t.From, "to", &t.To, "resource", &t.Resource, "at", &t.At)
			})
		},
		"reservations", func() {
			decodeListPatch(sc, &p.Reservations, func(r *occupancy.Reservation) {
				sc.Object("Job", &r.Job, "Resource", (*int)(&r.Resource), "Start", &r.Start, "Finish", &r.Finish, "Pinned", &r.Pinned)
			})
		})
}

func decodeListPatch[T comparable](sc *jsonscan.Scanner, p **ListPatch[T], elem func(*T)) {
	jsonscan.Ptr(sc, p, func(lp *ListPatch[T]) {
		sc.Object("del", func() { lp.Del = jsonscan.Array(sc, lp.Del, func(i *int) { *i = sc.Int() }) },
			"put", func() {
				lp.Put = jsonscan.Array(sc, lp.Put, func(u *ListPut[T]) { sc.Object("at", &u.At, "v", func() { elem(&u.V) }) })
			})
	})
}

// DiffState returns the patch that turns prev into cur. Both must be
// exports of the same tracker, prev the earlier: equal job and resource
// counts, a decision log that only grew. It allocates only for what
// changed.
func DiffState(prev, cur *TrackerState) StatePatch {
	p := StatePatch{
		Generation: cur.Generation,
		Initial:    cur.Initial,
		Clock:      cur.Clock,
		Adoptions:  cur.Adoptions,
		Done:       cur.Done,
		Makespan:   cur.Makespan,
		Decisions:  cur.Decisions[len(prev.Decisions):],
	}
	for j := range cur.Phase {
		if cur.Phase[j] != prev.Phase[j] || cur.StartAt[j] != prev.StartAt[j] ||
			cur.StartRes[j] != prev.StartRes[j] || cur.FinishAt[j] != prev.FinishAt[j] ||
			cur.PinDur[j] != prev.PinDur[j] {
			p.Jobs = append(p.Jobs, JobRow{
				Job: j, Phase: cur.Phase[j], StartAt: cur.StartAt[j], StartRes: cur.StartRes[j],
				FinishAt: cur.FinishAt[j], PinDur: cur.PinDur[j],
			})
		}
	}
	for i, ok := range cur.Avail {
		if ok != prev.Avail[i] {
			p.Avail = append(p.Avail, i)
		}
	}
	for i, a := range cur.Assignments {
		if a != prev.Assignments[i] {
			p.Assignments = append(p.Assignments, a)
		}
	}
	p.Transfers = diffList(prev.Transfers, cur.Transfers)
	p.Reservations = diffList(prev.Reservations, cur.Reservations)
	return p
}

// diffList matches cur against prev by value, in order: an entry of cur
// survives when an equal entry of prev lies past the last survivor.
// Equal prefixes and suffixes are skipped first, so the common cases —
// nothing changed (a nil patch), entries appended — build no index.
func diffList[T comparable](prev, cur []T) *ListPatch[T] {
	lo, ph, ch := 0, len(prev), len(cur)
	for lo < ph && lo < ch && prev[lo] == cur[lo] {
		lo++
	}
	for ph > lo && ch > lo && prev[ph-1] == cur[ch-1] {
		ph--
		ch--
	}
	if lo == ph && lo == ch {
		return nil
	}
	p := &ListPatch[T]{}
	var at map[T]int
	if ph > lo && ch > lo {
		at = make(map[T]int, ph-lo)
		for i := lo; i < ph; i++ {
			at[prev[i]] = i
		}
	}
	next := lo // first prev index neither kept nor dropped yet
	for j := lo; j < ch; j++ {
		if i, ok := at[cur[j]]; ok && i >= next {
			for ; next < i; next++ {
				p.Del = append(p.Del, next)
			}
			next = i + 1
			continue
		}
		p.Put = append(p.Put, ListPut[T]{At: j, V: cur[j]})
	}
	for ; next < ph; next++ {
		p.Del = append(p.Del, next)
	}
	return p
}

// apply returns base rewritten by p (base itself when p is nil), or an
// error when p was not made for a list of base's shape.
func (p *ListPatch[T]) apply(base []T) ([]T, error) {
	if p == nil {
		return base, nil
	}
	n := len(base) - len(p.Del) + len(p.Put)
	if n < 0 {
		return nil, fmt.Errorf("drops %d of %d entries", len(p.Del), len(base))
	}
	out := make([]T, 0, n)
	d, u := 0, 0
	put := func() {
		for u < len(p.Put) && p.Put[u].At == len(out) {
			out = append(out, p.Put[u].V)
			u++
		}
	}
	for i, v := range base {
		if d < len(p.Del) && p.Del[d] == i {
			d++
			continue
		}
		put()
		out = append(out, v)
	}
	put()
	if d != len(p.Del) || u != len(p.Put) {
		return nil, fmt.Errorf("does not fit a list of %d entries", len(base))
	}
	if len(out) == 0 {
		return nil, nil // ExportState leaves an empty list nil
	}
	return out, nil
}

// Patch applies p to st in place, turning the export p was diffed
// against into the export it was diffed towards. st must own its slices.
// Patches come off disk, so every index is checked: on error st is left
// partly patched and must be discarded.
func (st *TrackerState) Patch(p StatePatch) error {
	n := len(st.Phase)
	if len(st.StartAt) != n || len(st.StartRes) != n || len(st.FinishAt) != n || len(st.PinDur) != n {
		return fmt.Errorf("feedback: patch: base job arrays disagree on the job count")
	}
	for _, r := range p.Jobs {
		if r.Job < 0 || r.Job >= n {
			return fmt.Errorf("feedback: patch: job row %d out of range", r.Job)
		}
		st.Phase[r.Job] = r.Phase
		st.StartAt[r.Job] = r.StartAt
		st.StartRes[r.Job] = r.StartRes
		st.FinishAt[r.Job] = r.FinishAt
		st.PinDur[r.Job] = r.PinDur
	}
	for _, i := range p.Avail {
		if i < 0 || i >= len(st.Avail) {
			return fmt.Errorf("feedback: patch: availability flip of resource %d out of range", i)
		}
		st.Avail[i] = !st.Avail[i]
	}
	for _, a := range p.Assignments {
		// Exports hold one assignment per job in job order, so the job is
		// the index; a base that breaks that was not exported by a tracker.
		if a.Job < 0 || a.Job >= len(st.Assignments) || st.Assignments[a.Job].Job != a.Job {
			return fmt.Errorf("feedback: patch: assignment of job %d does not fit the base", a.Job)
		}
		st.Assignments[a.Job] = a
	}
	var err error
	if st.Transfers, err = p.Transfers.apply(st.Transfers); err != nil {
		return fmt.Errorf("feedback: patch: transfers: %w", err)
	}
	if st.Reservations, err = p.Reservations.apply(st.Reservations); err != nil {
		return fmt.Errorf("feedback: patch: reservations: %w", err)
	}
	st.Decisions = append(st.Decisions, p.Decisions...)
	st.Generation = p.Generation
	st.Initial = p.Initial
	st.Clock = p.Clock
	st.Adoptions = p.Adoptions
	st.Done = p.Done
	st.Makespan = p.Makespan
	return nil
}

func sortAssignmentsByJob(as []wire.Assignment) {
	// Insertion sort: n is small and the slice is nearly sorted already.
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j].Job < as[j-1].Job; j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}

// Restore rebuilds a tracker from a journalled state: the same
// validation and assembly as New, but installing the persisted schedule,
// execution progress, transfer ledger and decision log instead of
// planning afresh. cfg.History must already hold the tenant's recovered
// repository — Restore does not replay observations. The restored
// tracker publishes its reservations into cfg.Occupancy exactly as the
// original had, so a shared grid's ledger reassembles from its residents.
func Restore(cfg Config, st *TrackerState) (*Tracker, error) {
	if st == nil {
		return nil, fmt.Errorf("feedback: nil state")
	}
	t, err := build(cfg)
	if err != nil {
		return nil, err
	}
	n := t.g.Len()
	ps := t.pool.Size()
	switch {
	case st.Generation < 1:
		return nil, fmt.Errorf("feedback: restore: generation %d < 1", st.Generation)
	case len(st.Phase) != n || len(st.StartAt) != n || len(st.StartRes) != n ||
		len(st.FinishAt) != n || len(st.PinDur) != n:
		return nil, fmt.Errorf("feedback: restore: job arrays sized for %d jobs, workflow has %d", len(st.Phase), n)
	case len(st.Avail) != ps:
		return nil, fmt.Errorf("feedback: restore: availability sized for %d resources, universe has %d", len(st.Avail), ps)
	case len(st.Assignments) != n:
		return nil, fmt.Errorf("feedback: restore: schedule covers %d of %d jobs", len(st.Assignments), n)
	case math.IsNaN(st.Clock) || math.IsInf(st.Clock, 0):
		return nil, fmt.Errorf("feedback: restore: clock %g is not finite", st.Clock)
	}
	// Pre-validate the schedule: FromAssignments panics on bad input, and
	// a recovery path must degrade to an error, not a crash.
	as := make([]schedule.Assignment, len(st.Assignments))
	seen := make([]bool, n)
	for i, a := range st.Assignments {
		switch {
		case a.Job < 0 || a.Job >= n:
			return nil, fmt.Errorf("feedback: restore: assignment job %d out of range", a.Job)
		case seen[a.Job]:
			return nil, fmt.Errorf("feedback: restore: job %d assigned twice", a.Job)
		case a.Resource < 0 || a.Resource >= ps:
			return nil, fmt.Errorf("feedback: restore: job %d on resource %d, universe has %d", a.Job, a.Resource, ps)
		case math.IsNaN(a.Start) || math.IsNaN(a.Finish) || a.Finish < a.Start:
			return nil, fmt.Errorf("feedback: restore: job %d interval [%g,%g) invalid", a.Job, a.Start, a.Finish)
		}
		seen[a.Job] = true
		as[i] = schedule.Assignment{
			Job: dag.JobID(a.Job), Resource: grid.ID(a.Resource), Start: a.Start, Finish: a.Finish,
		}
	}
	t.sched = schedule.FromAssignments(as)
	t.generation = st.Generation
	t.initial = st.Initial
	t.clock = st.Clock
	t.adoptions = st.Adoptions
	t.done = st.Done
	t.makespan = st.Makespan
	// The persisted availability replaces build's time-0 view: joins and
	// leaves already reported are part of the state.
	t.nAvail = 0
	for i, ok := range st.Avail {
		t.avail[i] = ok
		if ok {
			t.nAvail++
		}
	}
	t.nStarted, t.nFinished = 0, 0
	for j := 0; j < n; j++ {
		ph := jobPhase(st.Phase[j])
		if ph > phaseFinished {
			return nil, fmt.Errorf("feedback: restore: job %d has unknown phase %d", j, st.Phase[j])
		}
		if ph != phasePending && (st.StartRes[j] < 0 || st.StartRes[j] >= ps) {
			return nil, fmt.Errorf("feedback: restore: job %d started on resource %d, universe has %d", j, st.StartRes[j], ps)
		}
		t.phase[j] = ph
		t.startAt[j] = st.StartAt[j]
		t.startRes[j] = grid.ID(st.StartRes[j])
		t.finishAt[j] = st.FinishAt[j]
		t.pinDur[j] = st.PinDur[j]
		switch ph {
		case phaseStarted:
			t.nStarted++
		case phaseFinished:
			t.nStarted++
			t.nFinished++
			t.ks.Finish(dag.JobID(j), t.startRes[j], t.startAt[j], t.finishAt[j])
		}
	}
	t.ks.Clock = st.Clock
	// Replay the transfer ledger in its exported order: a fresh ledger
	// keeps the first recorded time per entry, so this reproduces it
	// exactly even where adoption-time transfers overwrote earlier ETAs.
	for _, tr := range st.Transfers {
		if tr.From < 0 || tr.From >= n || tr.To < 0 || tr.To >= n || tr.Resource < 0 {
			return nil, fmt.Errorf("feedback: restore: transfer (%d->%d on %d) out of range", tr.From, tr.To, tr.Resource)
		}
		t.ks.SetTransfer(dag.JobID(tr.From), dag.JobID(tr.To), grid.ID(tr.Resource), tr.At)
	}
	if len(st.Decisions) > 0 {
		t.decisions = make([]planner.Decision, 0, len(st.Decisions))
		for i, wd := range st.Decisions {
			d, err := DecisionFromWire(wd)
			if err != nil {
				return nil, fmt.Errorf("feedback: restore: decision %d: %w", i, err)
			}
			t.decisions = append(t.decisions, d)
		}
	}
	if t.occ != nil && !t.done {
		// Republish the journalled reservation set verbatim; the next
		// adoption recomputes it wholesale, exactly as live operation
		// would.
		t.resBuf = append(t.resBuf[:0], st.Reservations...)
		t.occ.Publish(t.resBuf)
	}
	return t, nil
}

// AlreadyApplied reports whether the batch is a replay of events the
// tracker has already folded in — the idempotency check behind
// crash-consistent report acks. A client that reported just before the
// daemon died retries the identical batch after recovery; the recovered
// state already includes it (the WAL record covers the post-apply
// state), so Apply would reject the events as non-monotonic. The server
// answers such a replay with a synthetic success ack instead.
//
// The check is conservative: every event must lie at or before the run
// clock AND be consistent with the current state under its kind's
// semantics (a started job is no longer pending on that resource at that
// time, a finished job finished at that time, a joined resource is
// available, ...). Partially novel batches return false and flow through
// Apply's normal validation. Availability toggles that have since
// toggled back (join then leave) also return false — a replay window
// only ever spans the single in-flight batch, never a later state
// change.
func (t *Tracker) AlreadyApplied(events []wire.ReportEvent) bool {
	if len(events) == 0 {
		return false
	}
	n := t.g.Len()
	for _, ev := range events {
		if ev.Time > t.clock {
			return false
		}
		switch ev.Kind {
		case wire.ReportJobStarted:
			if ev.Job < 0 || ev.Job >= n || t.phase[ev.Job] == phasePending {
				return false
			}
			if t.startAt[ev.Job] != ev.Time || t.startRes[ev.Job] != grid.ID(ev.Resource) {
				return false
			}
		case wire.ReportJobFinished:
			if ev.Job < 0 || ev.Job >= n || t.phase[ev.Job] != phaseFinished {
				return false
			}
			if t.finishAt[ev.Job] != ev.Time {
				return false
			}
		case wire.ReportVariance:
			if ev.Job < 0 || ev.Job >= n || t.phase[ev.Job] == phasePending {
				return false
			}
		case wire.ReportResourceJoin:
			if ev.Resource < 0 || ev.Resource >= t.pool.Size() || !t.avail[ev.Resource] {
				return false
			}
		case wire.ReportResourceLeave:
			if ev.Resource < 0 || ev.Resource >= t.pool.Size() || t.avail[ev.Resource] {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// DecisionToWire converts a planner decision to its wire form (+Inf
// prices become the -1 sentinel, JSON cannot carry infinities).
func DecisionToWire(d planner.Decision) wire.Decision {
	old := d.OldMakespan
	if math.IsInf(old, 1) {
		old = -1
	}
	return wire.Decision{
		Clock:        d.Clock,
		PoolSize:     d.PoolSize,
		OldMakespan:  old,
		NewMakespan:  d.NewMakespan,
		Adopted:      d.Adopted,
		JobsFinished: d.JobsFinished,
		Trigger:      d.Trigger.String(),
		Arrived:      d.ArrivedCount,
	}
}

// DecisionFromWire inverts DecisionToWire.
func DecisionFromWire(w wire.Decision) (planner.Decision, error) {
	tr, err := ParseTrigger(w.Trigger)
	if err != nil {
		return planner.Decision{}, err
	}
	old := w.OldMakespan
	if old == -1 {
		old = math.Inf(1)
	}
	return planner.Decision{
		Clock:        w.Clock,
		PoolSize:     w.PoolSize,
		OldMakespan:  old,
		NewMakespan:  w.NewMakespan,
		Adopted:      w.Adopted,
		JobsFinished: w.JobsFinished,
		Trigger:      tr,
		ArrivedCount: w.Arrived,
	}, nil
}

// ParseTrigger inverts planner.Trigger.String.
func ParseTrigger(s string) (planner.Trigger, error) {
	switch s {
	case "arrival":
		return planner.TriggerArrival, nil
	case "variance":
		return planner.TriggerVariance, nil
	case "departure":
		return planner.TriggerDeparture, nil
	case "contention":
		return planner.TriggerContention, nil
	case "upgrade":
		return planner.TriggerUpgrade, nil
	default:
		return 0, fmt.Errorf("feedback: unknown trigger %q", s)
	}
}
