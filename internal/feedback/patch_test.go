package feedback

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/occupancy"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// The patch-chain suite: a tracker is journalled the way the daemon
// journals it — the first export whole, every later one as
// DiffState(previous, current) — while a scripted enactor drives it
// through noisy runtimes, churned arrivals, departures, variance reports
// and out-of-band reevaluations. After every Apply and Reevaluate the
// fold of the chain must equal the tracker's own export, in memory and
// through JSON, and must Restore to a tracker that exports the same.

// chain is one tracker's journal.
type chain struct {
	tr   *Tracker
	cfg  Config
	prev *TrackerState // the export the next patch is diffed against
	mem  *TrackerState // first export + every patch, applied in memory
	disk *TrackerState // the same with state and patches through JSON
	cov  *coverage
}

// coverage tallies what the chains of one test exercised.
type coverage struct {
	steps, transfers, reservations int
	adopted                        map[planner.Trigger]int
}

func newChain(t *testing.T, cfg Config, cov *coverage) *chain {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &chain{tr: tr, cfg: cfg, prev: tr.ExportState(), mem: tr.ExportState(), disk: &TrackerState{}, cov: cov}
	if err := json.Unmarshal(mustJSON(t, c.prev), c.disk); err != nil {
		t.Fatal(err)
	}
	return c
}

// step journals the tracker's current state as one more patch and checks
// the fold.
func (c *chain) step(t *testing.T, what string) {
	t.Helper()
	cur := c.tr.ExportState()
	want := mustJSON(t, cur)
	p := DiffState(c.prev, cur)
	if err := c.mem.Patch(p); err != nil {
		t.Fatalf("%s: patch in memory: %v", what, err)
	}
	if !reflect.DeepEqual(c.mem, cur) {
		t.Fatalf("%s: folded state differs from the export\nfold:   %s\nexport: %s", what, mustJSON(t, c.mem), want)
	}
	var onDisk StatePatch
	if err := json.Unmarshal(mustJSON(t, p), &onDisk); err != nil {
		t.Fatalf("%s: patch does not survive JSON: %v", what, err)
	}
	if err := c.disk.Patch(onDisk); err != nil {
		t.Fatalf("%s: patch from JSON: %v", what, err)
	}
	if got := mustJSON(t, c.disk); !bytes.Equal(got, want) {
		t.Fatalf("%s: fold through JSON differs from the export\nfold:   %s\nexport: %s", what, got, want)
	}
	cfg := c.cfg
	cfg.History = cloneRepo(c.tr.repo)
	if cfg.Occupancy != nil {
		cfg.Occupancy = occupancy.NewLedger(c.tr.pool.Size()).View(cfg.Occupancy.Owner())
	}
	back, err := Restore(cfg, c.disk)
	if err != nil {
		t.Fatalf("%s: restore the fold: %v", what, err)
	}
	if got := mustJSON(t, back.ExportState()); !bytes.Equal(got, want) {
		t.Fatalf("%s: restored fold re-exports differently\nre-export: %s\nexport:    %s", what, got, want)
	}
	c.prev = cur
	if c.cov != nil {
		c.cov.steps++
		if p.Transfers != nil {
			c.cov.transfers++
		}
		if p.Reservations != nil {
			c.cov.reservations++
		}
	}
}

// script is the perturbation source: bytes read in order, zeros once
// exhausted (a zero byte perturbs nothing).
type script struct {
	b []byte
	i int
}

func (s *script) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	v := s.b[s.i]
	s.i++
	return v
}

// Perturbations a script byte can ask for after an event time (mod 16).
const (
	opHoldStarts = 1 // report this round's starts with the next batch
	opVariance   = 2 // revise a running job's duration
	opLeave      = 3 // an idle resource departs
	opRejoin     = 4 // a departed resource comes back
	opReevaluate = 5 // out-of-band evaluation (a neighbour freed capacity)
)

// enactor executes a tracker's current plan on a simulated grid: each
// resource runs its planned jobs in planned order as their predecessors
// finish, runtimes are the estimates scaled by a script byte (±20 %),
// late resources join at script-jittered times (±30 %), and every event
// goes back through Apply.
type enactor struct {
	c        *chain
	g        *dag.Graph
	est      *cost.Table
	sc       *script
	now      float64
	joins    []grid.Arrival // late arrivals still to come, ascending
	up       []bool
	busy     []int // job on each resource, -1 when idle
	endAt    []float64
	startT   []float64 // per job
	started  []bool
	finished []bool
	left     int
	gone     []int // departed resources
	held     []wire.ReportEvent
	// finishedNow reports that the last step applied a job finish (the
	// pair driver reevaluates the neighbour then).
	finishedNow bool
}

func newEnactor(c *chain, sc *workload.Scenario, pool *grid.Pool, s *script) *enactor {
	n, ps := sc.Graph.Len(), pool.Size()
	e := &enactor{
		c: c, g: sc.Graph, est: sc.Table, sc: s,
		up: make([]bool, ps), busy: make([]int, ps), endAt: make([]float64, ps),
		startT: make([]float64, n), started: make([]bool, n), finished: make([]bool, n), left: n,
	}
	for i := range e.busy {
		e.busy[i] = -1
	}
	for _, a := range pool.Arrivals() {
		if a.Time == 0 {
			e.up[a.Resource.ID] = true
			continue
		}
		a.Time *= 0.7 + 0.6*float64(s.next())/255
		e.joins = append(e.joins, a)
	}
	for i := 1; i < len(e.joins); i++ {
		for j := i; j > 0 && e.joins[j].Time < e.joins[j-1].Time; j-- {
			e.joins[j], e.joins[j-1] = e.joins[j-1], e.joins[j]
		}
	}
	return e
}

// startable lists the jobs that can start now: per idle resource, its
// first unstarted planned job, if that job's predecessors are finished.
func (e *enactor) startable() []wire.ReportEvent {
	var evs []wire.ReportEvent
	seen := make([]bool, len(e.up))
	for _, a := range e.c.tr.Plan().Assignments() {
		r := int(a.Resource)
		if e.started[a.Job] || seen[r] {
			continue
		}
		seen[r] = true
		if !e.up[r] || e.busy[r] >= 0 {
			continue
		}
		ready := true
		for _, p := range e.g.Preds(a.Job) {
			ready = ready && e.finished[p.From]
		}
		if ready {
			evs = append(evs, wire.ReportEvent{Kind: wire.ReportJobStarted, Time: e.now, Job: int(a.Job), Resource: r})
		}
	}
	return evs
}

// nextTime is when the enactor's next step happens.
func (e *enactor) nextTime() float64 {
	if len(e.startable()) > 0 {
		return e.now
	}
	t := math.Inf(1)
	for r, j := range e.busy {
		if j >= 0 && e.endAt[r] < t {
			t = e.endAt[r]
		}
	}
	if len(e.joins) > 0 && e.joins[0].Time < t {
		t = e.joins[0].Time
	}
	return t
}

func (e *enactor) apply(t *testing.T, evs []wire.ReportEvent) {
	t.Helper()
	evs = append(e.held, evs...)
	e.held = nil
	if len(evs) == 0 {
		return
	}
	out, err := e.c.tr.Apply(evs)
	if err != nil {
		t.Fatalf("apply %+v: %v", evs, err)
	}
	if e.c.cov != nil {
		for _, d := range out.Decisions {
			if d.Adopted {
				e.c.cov.adopted[d.Trigger]++
			}
		}
	}
	e.c.step(t, "apply")
}

// step advances the enactment by one round — starts that are possible
// now, else the next finish or join — and reports false once every job
// has finished.
func (e *enactor) step(t *testing.T) bool {
	t.Helper()
	e.finishedNow = false
	if e.left == 0 {
		return false
	}
	op := e.sc.next() % 16
	if starts := e.startable(); len(starts) > 0 {
		for _, ev := range starts {
			f := 0.8 + 0.4*float64(e.sc.next())/255
			e.started[ev.Job] = true
			e.startT[ev.Job] = e.now
			e.busy[ev.Resource] = ev.Job
			e.endAt[ev.Resource] = e.now + f*e.est.Comp(dag.JobID(ev.Job), grid.ID(ev.Resource))
		}
		if op == opHoldStarts {
			e.held = append(e.held, starts...)
		} else {
			e.apply(t, starts)
		}
		return true
	}
	at := e.nextTime()
	if math.IsInf(at, 1) {
		t.Fatalf("enactment stalled at t=%g with %d jobs left", e.now, e.left)
	}
	e.now = at
	var evs []wire.ReportEvent
	for r, j := range e.busy {
		if j >= 0 && e.endAt[r] == at {
			evs = append(evs, wire.ReportEvent{Kind: wire.ReportJobFinished, Time: at, Job: j, Resource: r, Duration: at - e.startT[j]})
			e.busy[r], e.finished[j] = -1, true
			e.left--
			e.finishedNow = true
		}
	}
	for len(e.joins) > 0 && e.joins[0].Time == at {
		r := int(e.joins[0].Resource.ID)
		e.joins = e.joins[1:]
		e.up[r] = true
		evs = append(evs, wire.ReportEvent{Kind: wire.ReportResourceJoin, Time: at, Resource: r})
	}
	switch op {
	case opVariance:
		for r, j := range e.busy {
			if j >= 0 && e.reported(j) {
				e.endAt[r] = at + 1.5*(e.endAt[r]-at) + 1
				evs = append(evs, wire.ReportEvent{Kind: wire.ReportVariance, Time: at, Job: j, Duration: e.endAt[r] - e.startT[j]})
				break
			}
		}
	case opLeave:
		nUp := 0
		for _, ok := range e.up {
			if ok {
				nUp++
			}
		}
		for r := len(e.up) - 1; r >= 0 && nUp > 2; r-- {
			if e.up[r] && e.busy[r] < 0 {
				e.up[r] = false
				e.gone = append(e.gone, r)
				evs = append(evs, wire.ReportEvent{Kind: wire.ReportResourceLeave, Time: at, Resource: r})
				break
			}
		}
	case opRejoin:
		if n := len(e.gone); n > 0 {
			r := e.gone[n-1]
			e.gone = e.gone[:n-1]
			e.up[r] = true
			evs = append(evs, wire.ReportEvent{Kind: wire.ReportResourceJoin, Time: at, Resource: r})
		}
	}
	e.apply(t, evs)
	if op == opReevaluate && e.left > 0 {
		e.reevaluate(t)
	}
	return e.left > 0
}

// reported says whether job j's start has reached the tracker (it has
// not while the start event is held).
func (e *enactor) reported(j int) bool {
	for _, ev := range e.held {
		if ev.Job == j {
			return false
		}
	}
	return true
}

func (e *enactor) reevaluate(t *testing.T) {
	t.Helper()
	out := e.c.tr.Reevaluate(planner.TriggerContention)
	if e.c.cov != nil {
		for _, d := range out.Decisions {
			if d.Adopted {
				e.c.cov.adopted[d.Trigger]++
			}
		}
	}
	e.c.step(t, "reevaluate")
}

// run drives one enactor to completion.
func (e *enactor) run(t *testing.T) {
	t.Helper()
	for e.step(t) {
	}
	if !e.c.tr.Done() {
		t.Fatalf("every job finished but the tracker is not done")
	}
}

// runPair drives two enactors sharing a grid in time order; a finish on
// one reevaluates the other, as the shard's notifyGrid does.
func runPair(t *testing.T, a, b *enactor) {
	t.Helper()
	for a.left > 0 || b.left > 0 {
		e, other := a, b
		if a.left == 0 || (b.left > 0 && b.nextTime() < a.nextTime()) {
			e, other = b, a
		}
		e.step(t)
		if e.finishedNow && other.left > 0 {
			other.reevaluate(t)
		}
	}
	if !a.c.tr.Done() || !b.c.tr.Done() {
		t.Fatalf("every job finished but a tracker is not done")
	}
}

// The application scenarios are immutable once built; build them once.
var (
	scenarioOnce   sync.Once
	blast24, wien  *workload.Scenario
	scenarioErr    error
	patchAppParams = workload.AppParams{Parallelism: 24, CCR: 1, Beta: 0.5}
	patchGrid      = workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4}
)

func appScenarios(t *testing.T) (*workload.Scenario, *workload.Scenario) {
	t.Helper()
	scenarioOnce.Do(func() {
		r := rng.New(0x5EED)
		if blast24, scenarioErr = workload.BlastScenario(patchAppParams, patchGrid, r); scenarioErr != nil {
			return
		}
		wien, scenarioErr = workload.Wien2kScenario(patchAppParams, patchGrid, r)
	})
	if scenarioErr != nil {
		t.Fatal(scenarioErr)
	}
	return blast24, wien
}

func liveConfig(sc *workload.Scenario, pool *grid.Pool) Config {
	return Config{
		Graph: sc.Graph, Prior: sc.Estimator(), Pool: pool,
		History: history.New(0), Policy: policy.MustGet("aheft"),
	}
}

// runScript enacts the scenario the first byte selects — BLAST-24,
// WIEN2K-24, a BLAST/WIEN2K pair on one shared grid, or the data-aware
// DAG — under the rest of the bytes as its perturbation script.
func runScript(t *testing.T, input []byte, cov *coverage) {
	t.Helper()
	s := &script{b: input}
	blast, wien := appScenarios(t)
	switch s.next() % 4 {
	case 0:
		newEnactor(newChain(t, liveConfig(blast, blast.Pool), cov), blast, blast.Pool, s).run(t)
	case 1:
		newEnactor(newChain(t, liveConfig(wien, wien.Pool), cov), wien, wien.Pool, s).run(t)
	case 2:
		// Both tenants plan over the BLAST scenario's pool (the two pools
		// have the same shape) and share its ledger.
		l := occupancy.NewLedger(blast.Pool.Size())
		ca, cb := liveConfig(blast, blast.Pool), liveConfig(wien, blast.Pool)
		ca.Occupancy, cb.Occupancy = l.View("wf-a"), l.View("wf-b")
		a := newEnactor(newChain(t, ca, cov), blast, blast.Pool, s)
		b := newEnactor(newChain(t, cb, cov), wien, blast.Pool, s)
		runPair(t, a, b)
	case 3:
		sc := workload.DataScenario(workload.DataParams{})
		m, err := data.NewModel(sc.Files, sc.Pool, sc.Graph, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := liveConfig(sc, sc.Pool)
		cfg.Opts.Data = m
		newEnactor(newChain(t, cfg, cov), sc, sc.Pool, s).run(t)
	}
}

// TestPatchFoldEqualsExport is the chain property over seeded random
// scripts on all four scenarios, with a coverage floor: the scripts must
// have produced adopted variance, arrival and departure reschedules and
// patches that touch the transfer ledger and the reservation set.
func TestPatchFoldEqualsExport(t *testing.T) {
	cov := &coverage{adopted: map[planner.Trigger]int{}}
	for kind := byte(0); kind < 4; kind++ {
		for seed := uint64(1); seed <= 3; seed++ {
			r := rng.New(seed<<8 | uint64(kind))
			input := make([]byte, 1024)
			input[0] = kind
			for i := 1; i < len(input); i++ {
				input[i] = byte(r.IntN(256))
			}
			runScript(t, input, cov)
		}
	}
	t.Logf("%d steps; adopted %v; %d patches touched transfers, %d reservations",
		cov.steps, cov.adopted, cov.transfers, cov.reservations)
	for _, tr := range []planner.Trigger{planner.TriggerVariance, planner.TriggerArrival, planner.TriggerDeparture} {
		if cov.adopted[tr] == 0 {
			t.Errorf("no adopted %s reschedule in any script", tr)
		}
	}
	if cov.transfers == 0 || cov.reservations == 0 {
		t.Errorf("patches touched transfers %d times, reservations %d times; want both > 0", cov.transfers, cov.reservations)
	}
}

// FuzzStatePatch holds the chain property under arbitrary scripts.
func FuzzStatePatch(f *testing.F) {
	f.Add([]byte{0}) // unperturbed BLAST; testdata/fuzz holds one seed per scenario
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 4096 {
			t.Skip()
		}
		runScript(t, input, nil)
	})
}

// TestPatchRejectsMisfit: a patch applied to a state it was not diffed
// against must fail, not index out of range — recovery feeds Patch from
// disk.
func TestPatchRejectsMisfit(t *testing.T) {
	base := func() *TrackerState {
		tr, _ := newSampleTracker(t, policy.Options{TieWindow: 0.05})
		return tr.ExportState()
	}
	tr, _ := newSampleTracker(t, policy.Options{TieWindow: 0.05})
	for _, b := range sampleBatches()[:2] {
		if _, err := tr.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	good := DiffState(base(), tr.ExportState())
	if err := base().Patch(good); err != nil {
		t.Fatalf("the uncorrupted patch does not apply: %v", err)
	}
	cases := map[string]func(p *StatePatch){
		"job row out of range":    func(p *StatePatch) { p.Jobs = []JobRow{{Job: 99}} },
		"negative job row":        func(p *StatePatch) { p.Jobs = []JobRow{{Job: -1}} },
		"avail out of range":      func(p *StatePatch) { p.Avail = []int{64} },
		"assignment out of range": func(p *StatePatch) { p.Assignments = []wire.Assignment{{Job: 10}} },
		"transfer drop past end":  func(p *StatePatch) { p.Transfers = &ListPatch[TransferState]{Del: []int{1000}} },
		"transfer drops unsorted": func(p *StatePatch) { p.Transfers = &ListPatch[TransferState]{Del: []int{1, 0}} },
		"transfer put past end":   func(p *StatePatch) { p.Transfers = &ListPatch[TransferState]{Put: []ListPut[TransferState]{{At: 7}}} },
		"reservation drop on nil": func(p *StatePatch) { p.Reservations = &ListPatch[occupancy.Reservation]{Del: []int{0}} },
	}
	for name, corrupt := range cases {
		p := good
		corrupt(&p)
		if err := base().Patch(p); err == nil {
			t.Errorf("%s: patch applied", name)
		}
	}
	ragged := base()
	ragged.PinDur = ragged.PinDur[:1]
	if err := ragged.Patch(good); err == nil {
		t.Error("patch applied to a base with ragged job arrays")
	}
}
