package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"aheft/internal/cost"
	"aheft/internal/feedback"
	"aheft/internal/history"
	"aheft/internal/obs"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/wire"
)

// This file is the daemon side of the paper's Fig. 1 feedback loop: live
// workflows are planned once and then parked on their shard, where
// POST /v1/workflows/{id}/report events flow into the tenant's
// Performance History Repository and drive variance/arrival/departure
// rescheduling through internal/feedback. Everything that touches a live
// tracker runs on the shard's worker goroutine; HTTP handlers talk to it
// through the shard's command channel and wait for the reply.

// shardCmd is one request routed to the owning shard's worker goroutine.
type shardCmd struct {
	wf     *workflow
	report *wire.Report
	// raw is the report's undecoded body, carried along only when the
	// flight recorder is on so the worker can append it in processing
	// order (see record.go).
	raw    json.RawMessage
	whatif *wire.WhatIfRequest
	// upgrade asks the worker to pay back a fast-path admission's
	// planning debt: re-evaluate the live plan with the full policy
	// (planner.TriggerUpgrade). Fire-and-forget — reply is nil.
	upgrade bool
	reply   chan cmdResult
}

// cmdResult is the worker's answer. memo is the workflow's, handed over
// with an ack that carries a plan.
type cmdResult struct {
	ack    *wire.ReportAck
	memo   *ackMemo
	whatif *wire.WhatIfDoc
	code   int // HTTP status when errMsg is set
	errMsg string
}

// startLive plans a live workflow and parks it on the shard for the
// report loop. The initial plan already mines the tenant's performance
// history (sharpened by earlier workflows), with the submitted estimate
// matrix as prior.
func (sh *shard) startLive(wf *workflow) {
	m := sh.srv.metrics
	if err := sh.srv.runCtx.Err(); err != nil {
		// Force-cancelled drain: fail fast instead of planning a workflow
		// (potentially tens of ms for the stress DAGs) that cancelLive
		// would immediately kill — the drain deadline already passed.
		wf.mu.Lock()
		wf.st.State = StateRunning
		wf.startedAt = time.Now()
		wf.mu.Unlock()
		sh.failLive(wf, err)
		return
	}
	planStart := time.Now()
	planAct := sh.startSpan(obs.StagePlan, wf)
	if wf.gridRef != nil {
		wf.gridRef.ledger.BindTenant(wf.id, wf.tenant)
	}
	cfg := sh.trackerConfig(wf)
	if wf.fastPath {
		// Two-speed planning, fast half: under a deep admission backlog
		// the initial plan is a cheap greedy placement so the enactor
		// can start immediately; the full-policy plan follows through
		// the upgrade command queued below.
		cfg.FastPlan = policy.MustGet("greedy")
	}
	tr, err := feedback.New(cfg)
	wf.mu.Lock()
	wf.st.State = StateRunning
	wf.startedAt = time.Now()
	wf.mu.Unlock()
	wf.append(m, wire.Event{Kind: "started"})
	if err != nil {
		planAct.Fail(err)
		sh.failLive(wf, err)
		return
	}
	wf.tracker = tr
	plan := livePlanDoc(wf, "initial")
	// The enactor learns the initial plan from GET …/plan; contention
	// reschedules bumping the generation past this are piggybacked on the
	// next report ack.
	wf.ackedGen = plan.Generation
	if planAct != nil {
		planAct.Span.Generation = plan.Generation
		planAct.End()
	}
	sh.announce(wf, plan)
	sh.live[wf.id] = wf
	m.count(func(c *MetricsDoc) { c.LiveResident++ })
	if wf.gridRef != nil {
		wf.gridRef.attach(wf)
	}
	// Initial-plan latency — execution start to first enactable plan —
	// keyed by path, so /metrics can prove the fast path's point: its
	// p99 must sit below the full-plan p99. Queue residency is excluded
	// (it sits in admission_wait_ms): the fast path only engages under
	// deep backlog, so folding wait time in would bill the overload the
	// fast path exists to absorb against the fast path itself.
	lat := time.Since(planStart).Seconds() * 1e3
	if wf.fastPath {
		m.admInitialFast.Record(lat)
		sh.scheduleUpgrade(wf)
	} else {
		m.admInitialFull.Record(lat)
	}
	// Journal the planned state; this also promotes the raw submission
	// body from the WAL's pending mirror to its live mirror. Only then is
	// the plan published to GET …/plan: a crash in between must not leave
	// an enactor holding the plan of a workflow the journal still lists as
	// pending — recovery would plan it afresh under it.
	sh.walLogState(wf, nil)
	wf.setPlan(plan)
}

// trackerConfig is what a live workflow's tracker is built (startLive) or
// restored (restoreLive) from.
func (sh *shard) trackerConfig(wf *workflow) feedback.Config {
	cfg := feedback.Config{
		Graph:             wf.sub.Graph,
		Prior:             cost.Exact(wf.sub.Comp),
		Pool:              wf.sub.Pool,
		History:           sh.historyFor(wf.tenant),
		Policy:            wf.pol,
		Opts:              wf.opts,
		VarianceThreshold: wf.varThr,
	}
	if wf.gridRef != nil {
		// Shared-grid workflow: plan over the grid's resource universe,
		// publishing reservations into (and planning around) its ledger.
		cfg.Pool = wf.gridRef.pool
		cfg.Occupancy = wf.gridRef.ledger.View(wf.id)
	}
	return cfg
}

// startSpan opens a span of wf's on this shard, under its intake span.
func (sh *shard) startSpan(stage string, wf *workflow) *obs.Active {
	a := sh.srv.tracer.Start(stage, wf.id)
	if a != nil {
		a.Span.Parent = wf.rootSpan
		a.Span.Shard = sh.id
		a.Span.Tenant = wf.tenant
		if wf.gridRef != nil {
			a.Span.Grid = wf.gridRef.name
		}
	}
	return a
}

// scheduleUpgrade queues the slow half of a fast-path admission: an
// asynchronous command that re-plans with the full policy. It goes
// through the command channel from a helper goroutine — never a direct
// call or a worker-side send — so upgrades interleave with reports and
// new intake at the select loop's pace instead of blocking the worker
// on its own (bounded) channel.
func (sh *shard) scheduleUpgrade(wf *workflow) {
	go func() {
		select {
		case sh.cmds <- shardCmd{wf: wf, upgrade: true}:
		case <-sh.srv.runCtx.Done():
		}
	}()
}

// enacting reports whether wf is parked on this shard with jobs still to
// run — the one state in which a command may touch its tracker. (sh.live
// holds only planned workflows that have not been finished.)
func (sh *shard) enacting(wf *workflow) bool {
	return sh.live[wf.id] == wf && !wf.tracker.Done()
}

// handleCmd serves one report, what-if or upgrade on the worker
// goroutine.
func (sh *shard) handleCmd(cmd shardCmd) {
	wf := cmd.wf
	m := sh.srv.metrics
	if cmd.upgrade {
		// Fire-and-forget: no reply channel. A workflow that reached a
		// terminal state before its upgrade arrived satisfies the
		// fast-path invariant (upgraded or terminal) by being terminal.
		sh.applyUpgrade(wf)
		return
	}
	if !sh.enacting(wf) {
		if cmd.report != nil {
			m.count(func(c *MetricsDoc) { c.ReportsRejected++ })
		}
		cmd.reply <- cmdResult{code: http.StatusConflict, errMsg: "workflow is not accepting reports"}
		return
	}
	switch {
	case cmd.report != nil:
		sh.applyReport(wf, cmd)
	case cmd.whatif != nil:
		doc, err := wf.tracker.WhatIf(*cmd.whatif)
		if err != nil {
			cmd.reply <- cmdResult{code: http.StatusBadRequest, errMsg: err.Error()}
			return
		}
		m.count(func(c *MetricsDoc) { c.WhatIfQueries++ })
		doc.Workflow = wf.id
		cmd.reply <- cmdResult{whatif: doc}
	default:
		cmd.reply <- cmdResult{code: http.StatusBadRequest, errMsg: "empty command"}
	}
}

// applyReport folds a validated report into the live run: history feed,
// variance judgement, rescheduling decisions into the event log (with
// their trigger), plan bump on adoption, completion on the last finish.
func (sh *shard) applyReport(wf *workflow, cmd shardCmd) {
	m := sh.srv.metrics
	// Record the report before applying it: even a batch the tracker
	// rejects or has already applied reached this worker and consumed its
	// turn in the processing order, and replay must re-drive it to land
	// on the same order (it is re-rejected or re-acked identically).
	if rec := sh.srv.recorder; rec != nil && cmd.raw != nil {
		rec.report(sh.id, wf.id, cmd.raw)
	}
	ingestAct := sh.startSpan(obs.StageIngest, wf)
	var ingestID uint64
	if ingestAct != nil {
		ingestID = ingestAct.Span.ID
	}
	out, err := wf.tracker.Apply(cmd.report.Events)
	if err != nil {
		// A restarted daemon may be re-sent a batch it already applied
		// before the crash (the enactor's ack was lost). Replays the
		// tracker's recovered state already reflects are acked
		// idempotently instead of 400ing a correct client.
		if wf.tracker.AlreadyApplied(cmd.report.Events) {
			m.count(func(c *MetricsDoc) { c.ReportsDuplicate++ })
			ack := &wire.ReportAck{Workflow: wf.id, Applied: len(cmd.report.Events)}
			memo := wf.ackPlan(ack)
			ingestAct.End()
			cmd.reply <- cmdResult{ack: ack, memo: memo}
			return
		}
		m.count(func(c *MetricsDoc) { c.ReportsRejected++ })
		ingestAct.Fail(err)
		cmd.reply <- cmdResult{code: http.StatusBadRequest, errMsg: err.Error()}
		return
	}
	m.count(func(c *MetricsDoc) {
		c.Reports++
		c.ReportEvents += uint64(out.Applied)
	})
	sh.publish(wf, out, ingestID, 0, "")
	ack := &wire.ReportAck{
		Workflow:  wf.id,
		Applied:   out.Applied,
		Decisions: len(out.Decisions),
		Done:      out.Done,
	}
	wf.mu.Lock()
	wf.st.Reports++
	wf.mu.Unlock()
	memo := wf.ackPlan(ack)
	// Count the reservations this batch released before finishLive tears
	// the tracker's grid state down.
	released := 0
	if wf.gridRef != nil {
		for _, ev := range cmd.report.Events[:out.Applied] {
			if ev.Kind == wire.ReportJobFinished {
				released++
			}
		}
	}
	gref, tenant := wf.gridRef, wf.tenant // finishLive drops the running half
	// Journal the post-apply state (with this batch's history deltas)
	// even when the batch completes the run: the deltas must reach the
	// recovered tenant history, and the terminal record finishLive
	// journals supersedes the state record on replay.
	sh.walLogState(wf, out.Recorded)
	if out.Done {
		ack.Makespan = out.Makespan
		sh.finishLive(wf)
	}
	// StageEnact marks a plan generation reaching its enactor: this ack
	// carries one either because this batch's replan was adopted or as
	// the piggyback of an earlier contention or upgrade adoption.
	if t := sh.srv.tracer; t != nil && ack.Plan != nil {
		t.Emit(obs.Span{
			Stage: obs.StageEnact, Workflow: wf.id, Tenant: tenant, Shard: sh.id,
			Parent: ingestID, Trigger: ack.Trigger, Generation: ack.Generation,
		}, 0)
	}
	ingestAct.End()
	cmd.reply <- cmdResult{ack: ack, memo: memo}
	// Cross-workflow trigger: freed capacity is a run-time event for
	// every survivor on the grid. Evaluated after the reply so the
	// reporter is not held behind its neighbours' replans. The survivors'
	// evaluate spans link back to this batch's ingest span — the span of
	// the releasing workflow's finish report, the causal edge.
	if gref != nil && released > 0 {
		sh.notifyGrid(gref, wf.id, ingestID)
	}
}

// ackPlan stamps the ack with the tracker's generation and, when the
// enactor has not been handed that generation yet, attaches the published
// plan: the batch's own adoption, or a contention or upgrade adoption made
// between this enactor's reports, picked up without an extra round trip.
// It returns the memo to encode an ack carrying a plan through.
func (wf *workflow) ackPlan(ack *wire.ReportAck) (memo *ackMemo) {
	gen := wf.tracker.Generation()
	ack.Generation = gen
	if gen > wf.ackedGen {
		wf.mu.Lock()
		plan := wf.plan
		if plan != nil {
			ack.Rescheduled = true
			ack.Trigger = plan.Trigger
			ack.Plan = plan
			ack.Generation = plan.Generation
			if wf.memo == nil {
				wf.memo = new(ackMemo)
			}
			memo = wf.memo
		}
		wf.mu.Unlock()
	}
	wf.ackedGen = gen
	return memo
}

// ackMemo is a live workflow's memory of the last plan its report acks
// carried (wire.AckMemo). It sits in the running half, so it ends with the
// run; the HTTP goroutines an adopting ack is handed to encode through it
// one at a time. GET …/plan encodes without one.
type ackMemo struct {
	mu   sync.Mutex
	memo wire.AckMemo
}

// applyUpgrade runs the slow half of a fast-path admission on the
// worker goroutine: one full-policy re-evaluation (TriggerUpgrade).
// Adoption follows the ordinary plan-bump plumbing, so the enactor picks
// the upgraded plan up exactly like a contention reschedule: from the
// generation piggyback on its next report ack, or a plan re-fetch.
// Counted as upgraded whether or not the evaluation adopts — the
// planning debt is paid by the evaluation, and a greedy plan the full
// policy cannot beat owes nothing further.
func (sh *shard) applyUpgrade(wf *workflow) {
	if !sh.enacting(wf) || wf.upgraded {
		return
	}
	wf.upgraded = true
	cls := className(wf.class)
	sh.srv.metrics.count(func(c *MetricsDoc) { c.Admission.UpgradedByClass[cls]++ })
	sh.publish(wf, wf.tracker.Reevaluate(planner.TriggerUpgrade), wf.rootSpan, 0, "")
	// Journal the paid-debt flag, and the upgraded plan and reservations
	// if it adopted: a crash before the next report must restore them.
	sh.walLogState(wf, nil)
}

// publish folds one tracker outcome into the daemon. It is the one path
// every live replan takes, whatever caused it — a report, another
// workflow's freed capacity (contention), a fast-path upgrade: each
// evaluation is counted, traced, recorded and logged as a decision event,
// and an adopted plan becomes the workflow's published plan and a "plan"
// event. parent is the span the evaluations hang under; link and linkWf,
// when set, name a cross-workflow cause. It reports whether the plan
// changed; journalling is the caller's.
func (sh *shard) publish(wf *workflow, out *feedback.Outcome, parent, link uint64, linkWf string) bool {
	sh.srv.metrics.decided(out.Decisions)
	for _, d := range out.Decisions {
		sh.emitDecisionSpans(wf, d, parent, link, linkWf)
		sh.logDecision(wf, d)
	}
	if !out.Rescheduled {
		return false
	}
	plan := livePlanDoc(wf, out.Trigger.String())
	wf.setPlan(plan)
	sh.announce(wf, plan)
	return true
}

// announce records a newly published plan in the flight recorder and the
// workflow's event log.
func (sh *shard) announce(wf *workflow, plan *wire.Plan) {
	if rec := sh.srv.recorder; rec != nil {
		rec.plan(sh.id, plan)
	}
	wf.append(sh.srv.metrics, wire.Event{
		Kind: "plan", Time: wf.tracker.Clock(), Trigger: plan.Trigger,
		Generation: plan.Generation, Makespan: plan.Makespan,
	})
}

// logDecision records one evaluation, live or analytic, in the flight
// recorder and the workflow's event log.
func (sh *shard) logDecision(wf *workflow, d planner.Decision) {
	wd := wireDecision(d)
	if rec := sh.srv.recorder; rec != nil {
		rec.decision(sh.id, wf.id, &wd)
	}
	wf.append(sh.srv.metrics, decisionEvent(&wd))
}

// emitDecisionSpans files the retroactive evaluate span for one
// rescheduling evaluation — back-dated by the kernel-measured replan
// latency, so nothing runs on the measured path — and, on adoption, the
// adopt span beneath it. parent is the triggering ingest span;
// link/linkWf, when set, name the cross-workflow cause (the releasing
// workflow's ingest span, contention trigger).
func (sh *shard) emitDecisionSpans(wf *workflow, d planner.Decision, parent, link uint64, linkWf string) {
	t := sh.srv.tracer
	if t == nil {
		return
	}
	sp := obs.Span{
		Stage:        obs.StageEvaluate,
		Workflow:     wf.id,
		Tenant:       wf.tenant,
		Shard:        sh.id,
		Parent:       parent,
		Link:         link,
		LinkWorkflow: linkWf,
		Trigger:      d.Trigger.String(),
		Adopted:      d.Adopted,
	}
	if wf.gridRef != nil {
		sp.Grid = wf.gridRef.name
	}
	evalID := t.Emit(sp, time.Duration(d.ElapsedMs*float64(time.Millisecond)))
	if d.Adopted {
		t.Emit(obs.Span{
			Stage: obs.StageAdopt, Workflow: wf.id, Tenant: wf.tenant, Grid: sp.Grid,
			Shard: sh.id, Parent: evalID, Trigger: sp.Trigger,
			Generation: wf.tracker.Generation(),
		}, 0)
	}
}

// finishLive completes a live run: terminal event, record release,
// metrics, retention.
func (sh *shard) finishLive(wf *workflow) {
	m := sh.srv.metrics
	tr := wf.tracker
	delete(sh.live, wf.id)
	m.count(func(c *MetricsDoc) { c.LiveResident-- })
	if wf.gridRef != nil {
		// Belt and braces: every per-job release already happened on the
		// finish reports, but a terminal record must never leave a claim
		// behind — a leaked reservation would shrink the grid for every
		// other tenant forever.
		wf.gridRef.ledger.Release(wf.id)
		wf.gridRef.detach(wf.id)
	}
	res := &planner.Result{
		Policy:          wf.pol.Name(),
		Makespan:        tr.Makespan(),
		InitialMakespan: tr.InitialMakespan(),
		Decisions:       tr.Decisions(),
	}
	wf.append(m, wire.Event{Kind: "done", Time: tr.Makespan(), Makespan: tr.Makespan()})
	wf.finish(res, nil)
	m.liveWorkflowDone(false)
	sh.srv.retire(wf.id)
	sh.walLogTerminal(wf)
	if rec := sh.srv.recorder; rec != nil {
		rec.done(sh.id, wf.id, StateDone, tr.Makespan(), "")
	}
}

// cancelLive force-fails every resident live run (drain deadline).
func (sh *shard) cancelLive(err error) {
	m := sh.srv.metrics
	if err == nil {
		err = fmt.Errorf("server shutting down")
	}
	for id, wf := range sh.live {
		delete(sh.live, id)
		m.count(func(c *MetricsDoc) { c.LiveResident-- })
		if wf.gridRef != nil {
			// Force-cancel releases the whole claim set; no survivor
			// notification — every resident of the shard is being killed.
			wf.gridRef.ledger.Release(id)
			wf.gridRef.detach(id)
		}
		sh.failLive(wf, err)
	}
}

// failLive ends a live workflow with err: the failed event, its terminal
// status and counts, retention, and the journal's and recorder's terminal
// records.
func (sh *shard) failLive(wf *workflow, err error) {
	wf.append(sh.srv.metrics, wire.Event{Kind: "failed", Error: err.Error()})
	wf.finish(nil, err)
	sh.srv.metrics.liveWorkflowDone(true)
	sh.srv.retire(wf.id)
	sh.walLogTerminal(wf)
	if rec := sh.srv.recorder; rec != nil {
		rec.done(sh.id, wf.id, StateFailed, 0, err.Error())
	}
}

// livePlanDoc snapshots the tracker's current schedule as a wire.Plan.
// Called on the shard goroutine only.
func livePlanDoc(wf *workflow, trigger string) *wire.Plan {
	s := wf.tracker.Plan()
	doc := &wire.Plan{
		Workflow:    wf.id,
		Generation:  wf.tracker.Generation(),
		Trigger:     trigger,
		Makespan:    s.Makespan(),
		Assignments: make([]wire.Assignment, 0, s.Len()),
	}
	for a := range s.ByJob() {
		doc.Assignments = append(doc.Assignments, wire.Assignment{
			Job: int(a.Job), Resource: int(a.Resource), Start: a.Start, Finish: a.Finish,
		})
	}
	return doc
}

// historyFor returns (creating on demand) the tenant's Performance
// History Repository on this shard, refreshing its LRU position and
// evicting the coldest tenants beyond Config.MaxTenantHistories — a
// long-lived multi-tenant daemon's history memory stays bounded; a live
// workflow holds its repository by reference, so eviction only makes
// *future* workflows of that tenant start cold.
func (sh *shard) historyFor(tenant string) *history.Repository {
	sh.histMu.Lock()
	defer sh.histMu.Unlock()
	if sh.hist == nil {
		sh.hist = make(map[string]*history.Repository)
	}
	if r, ok := sh.hist[tenant]; ok {
		for i, t := range sh.histOrder {
			if t == tenant {
				sh.histOrder = append(append(sh.histOrder[:i:i], sh.histOrder[i+1:]...), tenant)
				break
			}
		}
		return r
	}
	r := history.New(0)
	sh.hist[tenant] = r
	sh.histOrder = append(sh.histOrder, tenant)
	if limit := sh.srv.cfg.MaxTenantHistories; limit > 0 {
		for len(sh.hist) > limit {
			oldest := sh.histOrder[0]
			sh.histOrder = sh.histOrder[1:]
			delete(sh.hist, oldest)
			sh.srv.metrics.count(func(c *MetricsDoc) { c.HistoryEvicted++ })
		}
	}
	return r
}

// historyTotals sums this shard's tenant repositories for /metrics.
func (sh *shard) historyTotals() (tenants, cells int) {
	sh.histMu.Lock()
	defer sh.histMu.Unlock()
	for _, r := range sh.hist {
		cells += r.Len()
	}
	return len(sh.hist), cells
}

// --- HTTP handlers ----------------------------------------------------

// dispatch routes a command to the workflow's shard and waits for the
// worker's reply, bailing out when the client disconnects or the daemon
// dies. ok is false when there is nothing left to write.
func (s *Server) dispatch(r *http.Request, wf *workflow, c shardCmd) (cmdResult, bool) {
	c.wf = wf
	c.reply = make(chan cmdResult, 1)
	unavailable := cmdResult{code: http.StatusServiceUnavailable, errMsg: "server is shutting down"}
	select {
	case s.shards[wf.shard].cmds <- c:
	case <-r.Context().Done():
		return cmdResult{}, false
	case <-s.runCtx.Done():
		return unavailable, true
	}
	select {
	case res := <-c.reply:
		return res, true
	case <-r.Context().Done():
		return cmdResult{}, false
	case <-s.runCtx.Done():
		return unavailable, true
	}
}

// checkLive resolves a live, non-terminal workflow or writes the error.
func (s *Server) checkLive(w http.ResponseWriter, r *http.Request) (*workflow, bool) {
	wf, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown workflow"})
		return nil, false
	}
	if !wf.live {
		writeJSON(w, http.StatusConflict, errorDoc{Error: "workflow is not in live mode"})
		return nil, false
	}
	wf.mu.Lock()
	terminal := wf.running == nil
	wf.mu.Unlock()
	if terminal {
		writeJSON(w, http.StatusConflict, errorDoc{Error: "workflow is terminal"})
		return nil, false
	}
	return wf, true
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	wf, ok := s.checkLive(w, r)
	if !ok {
		m.count(func(c *MetricsDoc) { c.ReportsRejected++ })
		return
	}
	data, err := s.readBody(w, r)
	if err != nil {
		m.count(func(c *MetricsDoc) { c.ReportsRejected++ })
		return
	}
	rep, err := wire.DecodeReport(data, 0)
	if err != nil {
		m.count(func(c *MetricsDoc) { c.ReportsRejected++ })
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	var raw json.RawMessage
	if s.recorder != nil {
		raw = data
	}
	res, ok := s.dispatch(r, wf, shardCmd{report: rep, raw: raw})
	if !ok {
		return
	}
	if res.errMsg != "" {
		writeJSON(w, res.code, errorDoc{Error: res.errMsg})
		return
	}
	writeAppended(w, res.ack, res.memo, wire.AppendReportAck)
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	wf, ok := s.checkLive(w, r)
	if !ok {
		return
	}
	data, err := s.readBody(w, r)
	if err != nil {
		return
	}
	var q wire.WhatIfRequest
	if len(data) > 0 {
		if err := json.Unmarshal(data, &q); err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("decode what-if: %v", err)})
			return
		}
	}
	res, ok := s.dispatch(r, wf, shardCmd{whatif: &q})
	if !ok {
		return
	}
	if res.errMsg != "" {
		writeJSON(w, res.code, errorDoc{Error: res.errMsg})
		return
	}
	writeJSON(w, http.StatusOK, res.whatif)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	wf, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown workflow"})
		return
	}
	wf.mu.Lock()
	plan, run := wf.plan, wf.running
	wf.mu.Unlock()
	if plan == nil {
		writeJSON(w, http.StatusConflict, errorDoc{Error: "workflow has no live plan (analytic mode, or not yet planned)"})
		return
	}
	// A plan fetch from a workflow still running is an enactment: the
	// enactor now holds this generation. A finished workflow's last plan is
	// only read, and its intake span went with the running half. (rootSpan
	// is ordered by wf.mu: written before the enqueue, and plan is non-nil
	// only after the worker — which dequeued after that — published it.)
	if t := s.tracer; t != nil && run != nil {
		t.Emit(obs.Span{
			Stage: obs.StageEnact, Workflow: wf.id, Tenant: run.tenant,
			Shard: wf.shard, Parent: run.rootSpan, Generation: plan.Generation,
		}, 0)
	}
	writeAppended(w, plan, nil, wire.AppendPlan)
}
