package server

import (
	"context"
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
	"aheft/internal/wire"
)

// This file is the daemon side of the paper's Fig. 1 feedback loop: live
// workflows are planned once and then parked on their shard, where
// POST /v1/workflows/{id}/report events flow into the tenant's
// Performance History Repository and drive variance/arrival/departure
// rescheduling through internal/feedback. Everything that touches a live
// tracker runs on the shard's worker goroutine; HTTP handlers talk to it
// through the shard's command channel and wait for the reply.

// shardCmd is one request for a shard's worker: an input for apply (a
// start, wf alone; a report batch; a grid registration) or a what-if.
type shardCmd struct {
	wf     *workflow
	report *wire.Report
	raw    json.RawMessage // the report's body, for the flight recorder

	grid   *sharedGrid
	whatif *wire.WhatIfRequest
	reply  chan cmdResult
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
		sh.end(wf, nil, err)
		return
	}
	planStart := time.Now()
	planAct := sh.startSpan(obs.StagePlan, wf)
	if wf.gridRef != nil {
		wf.gridRef.ledger.BindTenant(wf.id, wf.tenant)
	}
	tr, err := feedback.New(sh.trackerConfig(wf))
	wf.mu.Lock()
	wf.st.State = StateRunning
	wf.startedAt = time.Now()
	wf.mu.Unlock()
	wf.append(m, wire.Event{Kind: "started"})
	if err != nil {
		planAct.Fail(err)
		sh.end(wf, nil, err)
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
	// Initial-plan latency — execution start to first enactable plan.
	// Queue residency is excluded: it sits in admission_wait_ms.
	m.admInitial.Record(time.Since(planStart).Seconds() * 1e3)
	// Journal the planned state. Only then is the plan published to
	// GET …/plan: a crash in between must not leave an enactor holding the
	// plan of a workflow the journal still lists as pending — recovery
	// would plan it afresh under it.
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

// enacting reports whether wf is parked on this shard with jobs still to
// run — the one state in which a command may touch its tracker. (sh.live
// holds only planned workflows that have not been finished.)
func (sh *shard) enacting(wf *workflow) bool {
	return sh.live[wf.id] == wf && !wf.tracker.Done()
}

// handleCmd serves one command on the worker goroutine: a report or a
// grid registration through apply, or a what-if.
func (sh *shard) handleCmd(cmd shardCmd) {
	wf := cmd.wf
	switch {
	case cmd.report != nil || cmd.grid != nil:
		sh.apply(cmd)
	case !sh.enacting(wf):
		cmd.reply <- notEnacting
	default:
		doc, err := wf.tracker.WhatIf(*cmd.whatif)
		if err != nil {
			cmd.reply <- cmdResult{code: http.StatusBadRequest, errMsg: err.Error()}
			return
		}
		sh.srv.metrics.count(func(c *MetricsDoc) { c.WhatIfQueries++ })
		doc.Workflow = wf.id
		cmd.reply <- cmdResult{whatif: doc}
	}
}

// notEnacting answers a command for a workflow that is not parked on its
// shard with jobs still to run.
var notEnacting = cmdResult{code: http.StatusConflict, errMsg: "workflow is not accepting reports"}

// applyReport folds a validated report into the live run: history feed,
// variance judgement, rescheduling decisions into the event log (with
// their trigger), plan bump on adoption, completion on the last finish.
func (sh *shard) applyReport(cmd shardCmd) {
	wf := cmd.wf
	m := sh.srv.metrics
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
	// recovered tenant history, and the terminal record end journals
	// supersedes the state record on replay.
	sh.walLogState(wf, out.Recorded)
	if out.Done {
		ack.Makespan = out.Makespan
		sh.finishLive(wf)
	}
	// StageEnact marks a plan generation reaching its enactor: this ack
	// carries one either because this batch's replan was adopted or as
	// the piggyback of an earlier contention adoption.
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
// plan: the batch's own adoption, or a contention adoption made
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

// publish folds one tracker outcome into the daemon. It is the one path
// every live replan takes, whatever caused it — a report or another
// workflow's freed capacity (contention): each
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

// finishLive ends a live run whose last job has finished.
func (sh *shard) finishLive(wf *workflow) {
	tr := wf.tracker
	sh.end(wf, &planner.Result{
		Policy:          wf.pol.Name(),
		Makespan:        tr.Makespan(),
		InitialMakespan: tr.InitialMakespan(),
	}, nil)
}

// cancelLive force-fails every resident live run (drain deadline).
func (sh *shard) cancelLive(err error) {
	for _, wf := range sh.live {
		sh.end(wf, nil, err)
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

// dispatch routes a command to a shard and waits for the worker's reply,
// bailing out when ctx ends (the client disconnected) or the daemon dies.
// ok is false when there is nothing left to write.
func (s *Server) dispatch(ctx context.Context, shard int, c shardCmd) (cmdResult, bool) {
	c.reply = make(chan cmdResult, 1)
	select {
	case s.shards[shard].cmds <- c:
	case <-ctx.Done():
		return cmdResult{}, false
	case <-s.runCtx.Done():
		return shuttingDown, true
	}
	return s.awaitReply(ctx, c.reply)
}

// shuttingDown answers a command no worker will serve.
var shuttingDown = cmdResult{code: http.StatusServiceUnavailable, errMsg: "server is shutting down"}

// awaitReply waits for a dispatched command's reply. A clean drain
// cancels runCtx the moment the last resident workflow finishes — which
// may be the one this command finished, its reply already buffered — and
// select picks among ready cases at random, so a reply that is there wins
// over the cancellation.
func (s *Server) awaitReply(ctx context.Context, reply <-chan cmdResult) (cmdResult, bool) {
	select {
	case res := <-reply:
		return res, true
	case <-ctx.Done():
		return cmdResult{}, false
	case <-s.runCtx.Done():
	}
	select {
	case res := <-reply:
		return res, true
	default:
		return shuttingDown, true
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
	data, err := s.readBody(w, r, nil)
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
	res, ok := s.dispatch(r.Context(), wf.shard, shardCmd{wf: wf, report: rep, raw: data})
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
	data, err := s.readBody(w, r, nil)
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
	res, ok := s.dispatch(r.Context(), wf.shard, shardCmd{wf: wf, whatif: &q})
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
