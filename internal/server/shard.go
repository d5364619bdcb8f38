package server

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"aheft/internal/admission"
	"aheft/internal/cost"
	"aheft/internal/feedback"
	"aheft/internal/history"
	"aheft/internal/obs"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/wire"
)

// Workflow states as reported by the API.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// workflow is one submitted workflow's registry entry. The daemon keeps
// up to Config.MaxRetained of them after their workflows end, and a busy
// daemon's peak RSS is about that many times what one holds for good, so
// that is kept small: a terminal entry is its identity and rec, one
// pointer-free record of its status, event log and last plan
// (terminal.go) — an 80 B shell and a record of about 200 B for a 60-job
// analytic workflow (TestTerminalRecordBudget: ≤ 700 B with the
// registry's share). Everything only a queued or running workflow needs
// sits in *running, which settle drops once it has sealed the record. A
// terminal entry is the same thing whether its workflow ended in this
// process (finish) or a previous one (recovery, from its
// wire.WALTerminal record), and every read decodes it.
type workflow struct {
	id    string
	shard int
	live  bool // submitted in live mode

	// running is nil once the workflow is terminal. The goroutine that
	// owns the workflow — the submitter until the enqueue, the shard's
	// worker after — writes it under mu and reads it bare; any other
	// reads it under mu.
	*running

	mu sync.Mutex
	// rec is the terminal record, sealed by settle (under mu).
	rec []byte
}

// entry is what a workflow's reads are served from: the running half's
// while the workflow runs, a terminal record decoded after.
type entry struct {
	// st is the status document: identity fields set at submission,
	// State/Generation/Reports following the run (under mu), the rest
	// filled in by finish.
	st     wire.Status
	events []eventRec
	// plan is the live-plan snapshot for GET …/plan (written by the shard
	// under mu, read by HTTP handlers); a terminal workflow keeps its last.
	plan *wire.Plan
}

// running is the part of a workflow that ends with it. Its entry, subs
// and ended are read and written under the workflow's mu.
type running struct {
	entry
	subs map[chan wire.Event]struct{}
	// ended is closed by settle, after the last event went out to subs;
	// the first subscriber makes it.
	ended chan struct{}

	sub  *wire.Submission
	pol  policy.Policy
	opts policy.Options

	// Live-mode identity (immutable after submit).
	tenant string
	varThr float64

	// Admission identity (immutable after submit): the fair-queue class
	// and weight the submission was admitted under.
	class  string
	weight float64

	// tracker is the live run's feedback state machine. It is owned by
	// the shard's worker goroutine exclusively (kernel discipline); HTTP
	// handlers reach it only through the shard's command channel.
	tracker *feedback.Tracker

	// gridRef is the shared grid the workflow is attached to (nil for
	// private-pool workflows). Immutable after submit; the workflow is
	// routed to the grid's shard.
	gridRef *sharedGrid
	// ackedGen is the last plan generation the enactor has been handed
	// (initial fetch or a report ack). When a cross-workflow contention
	// reschedule bumps the plan between this enactor's reports, the next
	// ack piggybacks the newer plan. Shard-goroutine only.
	ackedGen int
	// memo is what the acks that carry plans encode through, made by the
	// first of them (under mu).
	memo *ackMemo

	// Journal chain state (durable daemons; see durable.go), shard
	// goroutine only: walBase is the tracker state the workflow's newest
	// state record or snapshot entry left on disk — the next record is a
	// patch against it, or a whole state when it is nil — walEvents how
	// many events that record covered, walRev its chain number.
	walBase   *feedback.TrackerState
	walEvents int
	walRev    int

	// Observability state, written on the submit path strictly before the
	// enqueue publishes the record to the worker: rootSpan is the intake
	// span's ID (the parent of the workflow's later spans), queueAct the
	// in-flight queue-residency span the worker ends on pickup.
	rootSpan uint64
	queueAct *obs.Active
	// body is the raw submission (nil unless the daemon is durable or
	// recording): the journal logs it on enqueue and snapshots it while the
	// workflow waits or runs live, and the flight recorder appends it when
	// the worker starts the workflow (and, without a journal, drops it).
	body json.RawMessage
	// applied, set only by Server.Apply before the enqueue, hears from the
	// worker once the workflow has started (shard.apply).
	applied chan cmdResult

	submittedAt time.Time
	startedAt   time.Time // zero until the worker picks the workflow up (under mu)
}

// eventRec is one entry of a workflow's event log as it is kept:
// wire.Event without what the entry's position and owner give (Seq,
// Workflow) and with the fields no event uses together folded. Every event
// the daemon emits survives recordOf → event exactly; SSE and the WAL
// records are served from event().
type eventRec struct {
	kind       string
	time       float64
	makespan   float64
	generation int
	// cut is how many decision events settle took out of the log ahead of
	// this entry (eventsFrom puts them back from the status document);
	// zero throughout a running workflow's log.
	cut      int
	decision *wire.Decision // a decision event's payload; its Arrived is the event's
	note     string         // Error of a failed event, Trigger of any other
}

func recordOf(ev wire.Event) eventRec {
	rec := eventRec{
		kind: ev.Kind, time: ev.Time, makespan: ev.Makespan,
		generation: ev.Generation, decision: ev.Decision, note: ev.Trigger,
	}
	if ev.Kind == "failed" {
		rec.note = ev.Error
	}
	return rec
}

func recordsOf(evs []wire.Event) []eventRec {
	recs := make([]eventRec, len(evs))
	for i, ev := range evs {
		recs[i] = recordOf(ev)
	}
	return recs
}

// decisionEvent is the event that announces decision d.
func decisionEvent(d *wire.Decision) wire.Event {
	return wire.Event{Kind: "decision", Time: d.Clock, Decision: d, Trigger: d.Trigger, Arrived: d.Arrived}
}

// event returns kept entry i, the log's entry seq, of workflow id in wire
// form.
func (en *entry) event(id string, i, seq int) wire.Event {
	rec := &en.events[i]
	ev := wire.Event{
		Seq: seq, Kind: rec.kind, Workflow: id, Time: rec.time,
		Decision: rec.decision, Generation: rec.generation, Makespan: rec.makespan,
	}
	if rec.kind == "failed" {
		ev.Error = rec.note
	} else {
		ev.Trigger = rec.note
	}
	if rec.decision != nil {
		ev.Arrived = rec.decision.Arrived
	}
	return ev
}

// view returns the entry reads are served from: the running half's, or
// the terminal record decoded. Callers hold wf.mu.
func (wf *workflow) view() entry {
	if r := wf.running; r != nil {
		return r.entry
	}
	return decodeRecord(wf.id, wf.rec)
}

// eventsFrom returns the log from kept entry i on in wire form, the
// decision events settle cut out back in their places. Callers hold wf.mu.
func (wf *workflow) eventsFrom(i int) []wire.Event {
	en := wf.view()
	return en.wireEvents(wf.id, i)
}

// wireEvents is eventsFrom on an entry of workflow id.
func (en *entry) wireEvents(id string, i int) []wire.Event {
	out := make([]wire.Event, 0, len(en.events)+len(en.st.Decisions)-i)
	k := 0
	for ; i < len(en.events); i++ {
		for ; k < en.events[i].cut; k++ {
			ev := decisionEvent(&en.st.Decisions[k])
			ev.Seq, ev.Workflow = i+k, id
			out = append(out, ev)
		}
		out = append(out, en.event(id, i, i+k))
	}
	return out
}

// append adds one event to the log (its position is its dense Seq) and
// fans it out to the live subscribers. Fan-out never blocks the worker: a
// subscriber whose buffer is full loses the event, and the loss is
// counted in MetricsDoc.EventsDropped (surfaced as events_dropped in
// /metrics) — the log itself is complete, so a replaying consumer can
// always recover the full stream.
func (wf *workflow) append(m *Metrics, ev wire.Event) {
	wf.mu.Lock()
	wf.events = append(wf.events, recordOf(ev))
	if len(wf.subs) > 0 {
		ev = wf.event(wf.id, len(wf.events)-1, len(wf.events)-1)
		for ch := range wf.subs {
			select {
			case ch <- ev:
			default:
				m.count(func(c *MetricsDoc) { c.EventsDropped++ })
			}
		}
	}
	wf.mu.Unlock()
	m.count(func(c *MetricsDoc) { c.EventsEmitted++ })
}

// subscribe returns a snapshot of the log so far plus a live channel for
// what follows and a channel closed once nothing more will be sent, or a
// nil live channel when the workflow already reached a terminal state (the
// snapshot is then the complete stream). The caller must drain live until
// ended is closed, then call cancel, which recycles the live channel.
func (wf *workflow) subscribe() (replay []wire.Event, live chan wire.Event, ended <-chan struct{}, cancel func()) {
	wf.mu.Lock()
	defer wf.mu.Unlock()
	replay = wf.eventsFrom(0)
	r := wf.running
	if r == nil {
		return replay, nil, nil, func() {}
	}
	var ch chan wire.Event
	select {
	case ch = <-subBuffers:
	default:
		ch = make(chan wire.Event, subscriberBuffer)
	}
	if r.subs == nil {
		r.subs = make(map[chan wire.Event]struct{})
		r.ended = make(chan struct{})
	}
	r.subs[ch] = struct{}{}
	return replay, ch, r.ended, func() {
		wf.mu.Lock()
		delete(r.subs, ch)
		wf.mu.Unlock()
		for len(ch) > 0 {
			<-ch
		}
		select {
		case subBuffers <- ch:
		default:
		}
	}
}

// subscriberBuffer is the per-SSE-connection event buffer. A consumer
// that falls further behind than this starts losing live events (counted,
// see workflow.append). subBuffers recycles up to 32 of them (≈ 1 MB)
// across connections. It is a free list, not a sync.Pool: a collection
// empties a pool, and a daemon whose retained records are small collects
// often.
const subscriberBuffer = 256

var subBuffers = make(chan chan wire.Event, 32)

// finish completes the status document from the run's outcome (nil when
// it failed) and its event log, and makes the entry terminal. res is read,
// not kept — the status API reports makespans, not placements.
func (wf *workflow) finish(res *planner.Result, err error) {
	now := time.Now()
	wf.mu.Lock()
	st := wf.st
	st.State = StateDone
	if err != nil {
		st.State, st.Error = StateFailed, err.Error()
	}
	st.QueueMs = now.Sub(wf.submittedAt).Seconds() * 1e3
	if !wf.startedAt.IsZero() {
		st.QueueMs = wf.startedAt.Sub(wf.submittedAt).Seconds() * 1e3
		st.ComputeMs = now.Sub(wf.startedAt).Seconds() * 1e3
	}
	if res != nil {
		st.Makespan = res.Makespan
		st.InitialMakespan = res.InitialMakespan
		st.Improvement = res.Improvement()
	}
	// The log holds every evaluation the run made, whatever mode and
	// however it ended, and it is their one record. The status keeps its
	// copy as long as the entry is retained, so the copy is sized exactly.
	n := 0
	for _, rec := range wf.events {
		if rec.decision != nil {
			n++
		}
	}
	if n > 0 {
		st.Decisions = make([]wire.Decision, 0, n)
	}
	for _, rec := range wf.events {
		if d := rec.decision; d != nil {
			st.Decisions = append(st.Decisions, *d)
			if d.Adopted {
				st.Adoptions++
			}
		}
	}
	st.Events = len(wf.events)
	wf.mu.Unlock()
	wf.settle(st)
}

// settle is the one way an entry becomes terminal, whether its workflow
// just ended (finish) or ended before a restart (newTerminal, which seals
// its record directly): st, the log cut down to what st does not already
// say and the last plan are sealed into the record, the running half is
// dropped, and every live subscription is closed.
func (wf *workflow) settle(st wire.Status) {
	wf.mu.Lock()
	r := wf.running
	wf.rec = sealRecord(wf.id, &st, r.events, r.plan)
	wf.running = nil
	if r.ended != nil {
		close(r.ended)
	}
	wf.mu.Unlock()
}

// setPlan publishes plan as the workflow's live plan for GET …/plan.
func (wf *workflow) setPlan(plan *wire.Plan) {
	wf.mu.Lock()
	wf.plan = plan
	wf.st.Generation = plan.Generation
	wf.mu.Unlock()
}

// status assembles the wire.Status document.
func (wf *workflow) status() wire.Status {
	wf.mu.Lock()
	defer wf.mu.Unlock()
	r := wf.running
	if r == nil {
		return decodeStatus(wf.id, wf.rec)
	}
	st := r.st
	st.Events = len(r.events)
	if r.startedAt.IsZero() {
		st.QueueMs = time.Since(r.submittedAt).Seconds() * 1e3
	} else {
		st.QueueMs = r.startedAt.Sub(r.submittedAt).Seconds() * 1e3
	}
	return st
}

// wireDecision converts a planner decision to its wire form, the one
// converter: an +Inf price becomes the -1 sentinel (JSON cannot carry
// infinities), and the process-local telemetry the event stream carries
// is kept; the journal strips it, so replay stays bit-identical.
func wireDecision(d planner.Decision) wire.Decision {
	old := d.OldMakespan
	if math.IsInf(old, 1) {
		old = -1
	}
	return wire.Decision{
		Clock: d.Clock, PoolSize: d.PoolSize, OldMakespan: old, NewMakespan: d.NewMakespan,
		Adopted: d.Adopted, JobsFinished: d.JobsFinished, Trigger: d.Trigger.String(), Arrived: d.ArrivedCount,
		ElapsedMs: d.ElapsedMs, RankMs: d.RankMs, PlaceMs: d.PlaceMs,
	}
}

// shard is one session worker: a bounded intake queue drained in batches
// by a single goroutine that runs each workflow through its own
// kernel-backed planner pipeline. One goroutine per shard means the
// kernel's hot-path scratch (rank cache, dense state, placement arrays —
// allocated per run by planner.RunPolicyObserved) is never shared across
// goroutines, and workflows hashed to the same shard execute in
// submission order.
//
// Live-mode workflows stay resident on the shard after their initial
// plan: run-time reports and what-if queries reach them through cmds, so
// every touch of a live tracker (and its kernel) happens on this one
// goroutine too. The shard also owns its tenants' Performance History
// Repositories — the repositories themselves are thread-safe (metrics
// readers aggregate them concurrently), but their lifecycle (creation,
// LRU eviction) is the shard's.
type shard struct {
	id  int
	srv *Server
	// adm is the shard's admission controller: the bounded, weighted
	// fair queue between intake and this worker. Server.admit (and, before
	// the worker starts, recovery) enqueues; the worker, its one consumer,
	// serves one item per select wakeup through Ready/TryDequeue, so
	// tenants drain in two-level DRR order and intake interleaves fairly
	// with the report/what-if command stream. Every workflow the worker
	// starts finishes through end.
	adm  *admission.Controller
	cmds chan shardCmd
	live map[string]*workflow // live workflows resident on this shard

	// wal is the shard's durability state (nil when Config.DataDir is
	// empty; see durable.go).
	wal *shardWAL

	histMu    sync.Mutex
	hist      map[string]*history.Repository // per tenant
	histOrder []string                       // LRU order, oldest first
}

// run is the worker loop. It exits when the admission controller is
// closed (drain) after serving everything still queued *and* every
// resident live workflow has finished — live runs drain at their
// clients' pace, so a shard keeps serving reports after intake closes
// until the drain deadline force-cancels (runCtx). Intake is
// deliberately one item per wakeup: execution is sequential per shard
// either way, items left in the controller keep counting against the
// admission bounds (so a shard never holds more accepted-but-unstarted
// work than it promised before 429ing), and the controller re-arms its
// signal while work remains, so a deep backlog cannot starve the
// report/what-if command stream out of the select.
func (sh *shard) run() {
	defer sh.srv.workers.Done()
	intake := sh.adm.Ready()
	// Periodic snapshots run on this goroutine so they can read live
	// trackers; disabled (nil channel) when the daemon is not durable.
	var snapC <-chan time.Time
	if sh.wal != nil {
		t := time.NewTicker(sh.srv.cfg.SnapshotInterval)
		defer t.Stop()
		snapC = t.C
	}
	for {
		if intake == nil && len(sh.live) == 0 {
			return
		}
		// Commands first: report traffic from resident live
		// workflows is latency-sensitive, while intake is throughput
		// work. Draining pending commands before taking the next
		// admission keeps a flood of queued submissions from wedging
		// itself between an enactor's consecutive round trips.
		select {
		case c := <-sh.cmds:
			sh.handleCmd(c)
			continue
		default:
		}
		select {
		case <-intake:
			if d, ok := sh.adm.TryDequeue(); ok {
				sh.executeAdmitted(d)
			}
			if sh.adm.Drained() {
				intake = nil
			}
		case c := <-sh.cmds:
			sh.handleCmd(c)
		case <-snapC:
			sh.snapshot()
		case <-sh.srv.runCtx.Done():
			// Force-cancel: fail-fast whatever is still queued — a
			// queued live workflow parks itself and is swept up by the
			// cancel below — then fail the resident live runs.
			for {
				d, ok := sh.adm.TryDequeue()
				if !ok {
					break
				}
				sh.executeAdmitted(d)
			}
			sh.cancelLive(sh.srv.runCtx.Err())
			return
		}
	}
}

// executeAdmitted starts one workflow the fair queue let go. Its queue
// span ends here, on pickup.
func (sh *shard) executeAdmitted(d admission.Dequeued) {
	sh.srv.metrics.admWait.Record(d.Queued.Seconds() * 1e3)
	wf := d.Item.Value.(*workflow)
	if sh.srv.execHook != nil {
		sh.srv.execHook(wf)
	}
	wf.queueAct.End()
	sh.apply(shardCmd{wf: wf, reply: wf.applied})
}

// apply is the one place an input takes effect: a dequeued submission
// starts (cmd.wf alone), a report batch is folded into its live run, a grid
// is published. The flight recorder taps each just before, in processing
// order (see record.go). An input refused first — a report for a workflow
// not enacting, a grid whose name is taken or past MaxSharedGrids — is
// answered and leaves no record in either log. A start answers cmd.reply
// only for Server.Apply, once the workflow has run or been planned.
func (sh *shard) apply(cmd shardCmd) {
	s := sh.srv
	switch {
	case cmd.grid != nil:
		// One registration at a time from the checks to the publication,
		// which comes after both logs hold the grid.
		s.gridAdd.Lock()
		defer s.gridAdd.Unlock()
		if res, ok := s.gridRoom(cmd.grid.name); !ok {
			cmd.reply <- res
			return
		}
	case cmd.report != nil && !sh.enacting(cmd.wf):
		s.metrics.count(func(c *MetricsDoc) { c.ReportsRejected++ })
		cmd.reply <- notEnacting
		return
	}
	if rec := s.recorder; rec != nil {
		kind, in := cmd.recorded()
		rec.input(sh.id, kind, in)
	}
	switch {
	case cmd.grid != nil:
		if w := sh.wal; w != nil {
			w.mu.Lock()
			w.append(s.metrics, wire.WALGrid, &walGrid{Name: cmd.grid.name, Spec: cmd.grid.raw})
			w.mu.Unlock()
		}
		s.gridMu.Lock()
		s.grids[cmd.grid.name] = cmd.grid
		s.gridMu.Unlock()
		cmd.reply <- cmdResult{}
	case cmd.report != nil:
		sh.applyReport(cmd)
	default:
		if sh.wal == nil {
			cmd.wf.body = nil // only the journal keeps it past the start
		}
		sh.execute(cmd.wf)
		if cmd.reply != nil {
			cmd.reply <- cmdResult{}
		}
	}
}

// recorded is what the flight recorder keeps of an input apply takes.
func (cmd *shardCmd) recorded() (kind string, in wire.RecBody) {
	switch {
	case cmd.grid != nil:
		return wire.RecGrid, wire.RecBody{Grid: cmd.grid.name, Body: cmd.grid.raw}
	case cmd.report != nil:
		return wire.RecReport, wire.RecBody{Workflow: cmd.wf.id, Body: cmd.raw}
	}
	return wire.RecSubmission, wire.RecBody{Workflow: cmd.wf.id, Body: cmd.wf.body}
}

// execute runs one started workflow: a live submission is planned and
// parked for the report loop, an analytic one runs to completion through
// the analytic planner engine, streaming every rescheduling decision into
// the workflow's event log as it is made.
func (sh *shard) execute(wf *workflow) {
	m := sh.srv.metrics
	if wf.live {
		sh.startLive(wf)
		return
	}
	started := time.Now()
	wf.mu.Lock()
	wf.st.State = StateRunning
	wf.startedAt = started
	wf.mu.Unlock()
	wf.append(m, wire.Event{Kind: "started"})
	planAct := sh.startSpan(obs.StagePlan, wf)

	// Decisions are tallied in the observer, not from the result: a run
	// that fails mid-way still made (and streamed) its evaluations, and
	// the decisions/reschedules counters must agree with the decision
	// events in events_emitted.
	decisions := 0
	var adopted [planner.NumTriggers]uint64
	res, err := planner.RunPolicyObserved(sh.srv.runCtx, wf.sub.Graph, cost.Exact(wf.sub.Comp), wf.sub.Pool,
		wf.pol, wf.opts, func(d planner.Decision) {
			decisions++
			if d.Adopted {
				adopted[d.Trigger]++
			}
			sh.logDecision(wf, d)
		})

	if err != nil {
		planAct.Fail(err)
	} else {
		planAct.End()
		// Only successful runs contribute latency samples: a failed or
		// force-cancelled workflow aborts near-instantly and would drag
		// the compute percentiles toward zero.
		m.compute.Record(time.Since(started).Seconds() * 1e3)
	}
	// Analytic decisions carry no timing, so reschedule_ms stays live-only.
	m.count(func(c *MetricsDoc) {
		c.Decisions += uint64(decisions)
		for t, n := range adopted {
			c.Reschedules += n
			*c.adoptedBy(planner.Trigger(t)) += n
		}
	})
	sh.end(wf, res, err)
}

// end is the one way a workflow this shard ran finishes, done (err nil,
// res its outcome) or failed. In order: it leaves the resident set, gives
// back its shared-grid claims, appends the terminal event — before finish
// closes the subscription channels, so a follower sees "done"/"failed"
// and then the close — makes the entry terminal, counts it, retires it,
// and writes the journal's and the recorder's terminal records.
func (sh *shard) end(wf *workflow, res *planner.Result, err error) {
	s := sh.srv
	m := s.metrics
	if _, ok := sh.live[wf.id]; ok {
		delete(sh.live, wf.id)
		m.count(func(c *MetricsDoc) { c.LiveResident-- })
	}
	if g := wf.gridRef; g != nil {
		// Every per-job release already happened on the finish reports of a
		// run that completed, but a terminal record must never leave a claim
		// behind: a leaked reservation would shrink the grid for every
		// other tenant forever. No survivor is notified.
		g.ledger.Release(wf.id)
		g.detach(wf.id)
	}
	state, ev := StateDone, wire.Event{Kind: "done"}
	if err != nil {
		state, ev = StateFailed, wire.Event{Kind: "failed", Error: err.Error()}
	} else {
		ev.Time, ev.Makespan = res.Makespan, res.Makespan
	}
	wf.append(m, ev)
	wf.finish(res, err)
	m.count(func(c *MetricsDoc) { c.terminal(err != nil) })
	s.retire(wf.id)
	sh.walLogTerminal(wf)
	if rec := s.recorder; rec != nil {
		rec.done(sh.id, wf.id, state, ev.Makespan, ev.Error)
	}
}

// shardFor routes a workflow ID to a shard with Jump Consistent Hash
// (Lamping & Veach) over the ID's FNV-1a digest: uniform, stateless, and
// the same on every start, since a data directory keeps the shard count
// of its first start (CheckLayout).
func shardFor(id string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(id))
	return jumpHash(h.Sum64(), shards)
}

func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}
