package server

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aheft/internal/admission"
	"aheft/internal/buildinfo"
	"aheft/internal/cost"
	"aheft/internal/durable"
	"aheft/internal/feedback"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/wire"
)

// This file is the daemon's durability layer: a per-shard write-ahead
// log plus periodic snapshots covering everything a shard owns —
// accepted submissions, live trackers (plan, generation, execution
// progress), tenant performance histories, terminal records and
// shared-grid registrations. Each shard appends on its own paths (the
// submission path logs before enqueue; everything else appends from the
// shard's single worker goroutine), so the WAL adds one ordered write
// per state change and no new locking on the planning hot path. On
// startup, Open replays the newest snapshot plus the log tail: live
// workflows come back resident with their current plan and feedback
// state, shared-grid ledgers reassemble from their restored residents,
// pending submissions re-enqueue, and duplicate report replays are
// acked idempotently (see applyReport / feedback.AlreadyApplied).
//
// Record kinds (wire.WAL*): a submission logs its raw body before the
// enqueue; a reject voids it; an admission record carries its fair-queue
// credentials; a state record carries one live workflow's post-apply
// feedback state — as a patch (feedback.StatePatch) against the state
// the workflow's previous record left, with the events appended since
// and that batch's history deltas; a terminal record freezes the final
// status; a grid record registers a shared grid. State records describe
// the tracker, not the operations on it — replaying operations through
// Apply would re-run rescheduling evaluations whose outcomes depend on
// cross-workflow interleavings the log does not capture.
//
// A workflow's state records form a chain numbered by rev. The first
// record after startLive, and every Live entry of a snapshot, holds the
// whole feedback.TrackerState and event log and starts the chain afresh;
// each later record holds a patch and applies only onto rev-1. Recovery
// folds the chain in LSN order: a whole state replaces, a patch applies,
// events append at their dense seq. A gap, or a link that does not
// decode or does not fit, fails the workflow (failRecovered) rather than
// serve an older plan as current. Because a snapshot truncates the log
// the chains lived in, snapshot() re-bases every live workflow on the
// entry it just wrote; a snapshot or an append that fails leaves the
// workflow without a base, and its next record is a whole state again.
// Logs from before patches existed hold whole states only and recover
// through the same fold.

// walSubmission is the payload of a wire.WALSubmission record.
type walSubmission struct {
	ID   string          `json:"id"`
	Body json.RawMessage `json:"body"`
}

// walReject voids a logged submission whose enqueue was refused.
type walReject struct {
	ID string `json:"id"`
}

// walAdmission journals the admission decision for an accepted
// submission: the tenant, priority class and fair-queue weight it was
// admitted under. It rides beside the raw-body submission record so a
// crash restores queued-but-unplanned submissions into the fair queue
// with the same credentials — recovery must not re-litigate admission
// or let a tenant's flood re-enter ahead of its original position.
type walAdmission struct {
	ID     string  `json:"id"`
	Tenant string  `json:"tenant,omitempty"`
	Class  string  `json:"class,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

// walGrid registers a shared grid (raw wire.GridSpec body).
type walGrid struct {
	Name string          `json:"name"`
	Spec json.RawMessage `json:"spec"`
}

// walState is one live workflow's state record or snapshot entry: the
// tracker state (whole in State, or as Patch against the record rev-1),
// the enactor-visible plan/ack bookkeeping, the event log (whole beside
// State, the tail since rev-1 beside Patch), and the history
// observations the batch that produced this record fed in.
type walState struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Body is the raw submission, carried in snapshots only (WAL state
	// records join it from the earlier submission record).
	Body        json.RawMessage         `json:"body,omitempty"`
	Rev         int                     `json:"rev,omitempty"`
	AckedGen    int                     `json:"acked_gen"`
	Reports     int                     `json:"reports"`
	PlanTrigger string                  `json:"plan_trigger"`
	FastPath    bool                    `json:"fast_path,omitempty"`
	Upgraded    bool                    `json:"upgraded,omitempty"`
	State       *feedback.TrackerState  `json:"state,omitempty"`
	Patch       *feedback.StatePatch    `json:"patch,omitempty"`
	Deltas      []feedback.HistoryDelta `json:"deltas,omitempty"`
	Events      []wire.Event            `json:"events,omitempty"`

	// What the record leaves the chain at — the exported state and the
	// event count it covers. The writer re-bases the workflow on these
	// once the record is on disk. Not journalled.
	cur     *feedback.TrackerState
	nEvents int
}

// walTerminal freezes a workflow's final status and event log.
type walTerminal struct {
	ID     string       `json:"id"`
	Status wire.Status  `json:"status"`
	Plan   *wire.Plan   `json:"plan,omitempty"`
	Events []wire.Event `json:"events,omitempty"`
}

// tenantHistory is one tenant's repository in a shard snapshot.
type tenantHistory struct {
	Tenant string         `json:"tenant"`
	Alpha  float64        `json:"alpha"`
	Cells  []history.Cell `json:"cells"`
}

// shardSnapshot is the periodic full-state document that truncates the
// shard's log.
type shardSnapshot struct {
	V          int             `json:"v"`
	Seq        uint64          `json:"seq"`
	Grids      []walGrid       `json:"grids,omitempty"`
	Pending    []walSubmission `json:"pending,omitempty"`
	Admissions []walAdmission  `json:"admissions,omitempty"`
	Live       []walState      `json:"live,omitempty"`
	Terminal   []walTerminal   `json:"terminal,omitempty"`
	Tenants    []tenantHistory `json:"tenants,omitempty"`
}

// shardWAL is one shard's durability state: the append store plus the
// raw-submission mirrors the snapshot needs (a queued workflow sits in
// a channel and cannot be enumerated; a live tracker does not retain
// its raw body). The mutex orders appends against snapshot assembly and
// rotation, so no record can land in a segment the rotation is about to
// truncate without being covered by the snapshot.
type shardWAL struct {
	store *durable.Shard

	mu        sync.Mutex
	pend      map[string]json.RawMessage // accepted, not yet started
	pendOrder []string                   // arrival order (lazily compacted)
	admit     map[string]walAdmission    // admission credentials, mirrors pend
	bodies    map[string]json.RawMessage // live residents' raw submissions

	// onAppend, when set (tests only), sees each record's kind just before
	// it is written: the place to assert what is visible at that instant,
	// or to stop the store there as a crash would.
	onAppend func(kind string)
}

func newShardWAL(store *durable.Shard) *shardWAL {
	return &shardWAL{
		store:  store,
		pend:   make(map[string]json.RawMessage),
		admit:  make(map[string]walAdmission),
		bodies: make(map[string]json.RawMessage),
	}
}

// append writes one record and reports whether it was written; callers
// hold w.mu. A failed append degrades durability, not availability: the
// daemon keeps serving and the error is counted and logged.
func (w *shardWAL) append(m *Metrics, kind string, payload any) bool {
	if w.onAppend != nil {
		w.onAppend(kind)
	}
	if _, err := w.store.Append(kind, payload); err != nil {
		m.walErrors.Add(1)
		log.Printf("aheftd: wal append (%s): %v", kind, err)
		return false
	}
	return true
}

// rawPair hand-encodes {key: name, bodyKey: body} with the raw body
// embedded verbatim. Submission and grid-spec bodies are large and were
// already validated when decoded off the wire; letting json.Marshal
// re-validate and re-compact them on every append is the single biggest
// cost on the durable submission path, so the two raw-body record kinds
// build their payloads by hand. Decodes with the ordinary struct tags.
func rawPair(key, name, bodyKey string, body json.RawMessage) json.RawMessage {
	buf := make([]byte, 0, len(key)+len(name)+len(bodyKey)+len(body)+16)
	buf = append(buf, '{', '"')
	buf = append(buf, key...)
	buf = append(buf, '"', ':')
	buf = wire.AppendJSONString(buf, name)
	if len(body) > 0 {
		buf = append(buf, ',', '"')
		buf = append(buf, bodyKey...)
		buf = append(buf, '"', ':')
		buf = append(buf, body...)
	}
	return append(buf, '}')
}

// walLogSubmission mirrors and logs an accepted submission before its
// enqueue, so a crash between accept and start replays it as pending.
// The admission record lands in the same locked section, so no crash
// can observe a journalled body without its fair-queue credentials.
func (sh *shard) walLogSubmission(id string, body json.RawMessage, tenant, class string, weight float64) {
	w := sh.wal
	if w == nil {
		return
	}
	adm := walAdmission{ID: id, Tenant: tenant, Class: class, Weight: weight}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pend[id] = body
	w.pendOrder = append(w.pendOrder, id)
	w.admit[id] = adm
	w.append(sh.srv.metrics, wire.WALSubmission, rawPair("id", id, "body", body))
	w.append(sh.srv.metrics, wire.WALAdmission, adm)
}

// walLogReject voids a logged submission whose enqueue was refused.
func (sh *shard) walLogReject(id string) {
	w := sh.wal
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.pend, id)
	delete(w.admit, id)
	w.append(sh.srv.metrics, wire.WALReject, walReject{ID: id})
}

// walStateDoc assembles the workflow's next state record: a patch
// against its journal base with the events since, or — for a snapshot
// entry (whole), or with no base to patch — the whole state and event
// log. Shard goroutine only (it reads the tracker and the chain state).
func (sh *shard) walStateDoc(wf *workflow, whole bool) walState {
	cur := wf.tracker.ExportState()
	from := wf.walEvents
	if wf.walBase == nil {
		whole = true
	}
	if whole {
		from = 0
	}
	wf.mu.Lock()
	trigger := "initial" // startLive journals before it publishes the plan
	if wf.plan != nil {
		trigger = wf.plan.Trigger
	}
	reports := wf.st.Reports
	nEvents := len(wf.events)
	events := wf.eventsFrom(from)
	wf.mu.Unlock()
	doc := walState{
		ID:          wf.id,
		Tenant:      wf.tenant,
		Rev:         wf.walRev,
		AckedGen:    wf.ackedGen,
		Reports:     reports,
		PlanTrigger: trigger,
		FastPath:    wf.fastPath,
		Upgraded:    wf.upgraded,
		Events:      events,
		cur:         cur,
		nEvents:     nEvents,
	}
	if whole {
		doc.State = cur
	} else {
		p := feedback.DiffState(wf.walBase, cur)
		doc.Patch = &p
	}
	return doc
}

// rebase records that doc is the workflow's newest state on disk, so
// the next record patches against it; !written drops the base instead.
func (wf *workflow) rebase(doc *walState, written bool) {
	if !written {
		wf.walBase = nil
		return
	}
	wf.walBase, wf.walEvents, wf.walRev = doc.cur, doc.nEvents, doc.Rev
}

// walLogState journals a live workflow's post-apply state (and, on the
// first call after startLive, promotes its raw body from pending to
// live). Shard goroutine only.
func (sh *shard) walLogState(wf *workflow, deltas []feedback.HistoryDelta) {
	w := sh.wal
	if w == nil {
		return
	}
	doc := sh.walStateDoc(wf, false)
	doc.Rev++
	doc.Deltas = deltas
	w.mu.Lock()
	if b, ok := w.pend[wf.id]; ok {
		delete(w.pend, wf.id)
		delete(w.admit, wf.id)
		w.bodies[wf.id] = b
	}
	ok := w.append(sh.srv.metrics, wire.WALState, &doc)
	w.mu.Unlock()
	wf.rebase(&doc, ok)
}

// walLogTerminal journals a workflow's terminal record and drops its
// raw-body mirrors. Called after finish(), so status() is final.
func (sh *shard) walLogTerminal(wf *workflow) {
	w := sh.wal
	if w == nil {
		return
	}
	doc := wf.terminalDoc()
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.pend, wf.id)
	delete(w.admit, wf.id)
	delete(w.bodies, wf.id)
	w.append(sh.srv.metrics, wire.WALTerminal, doc)
}

// terminalDoc renders a terminal entry as its journal record.
func (wf *workflow) terminalDoc() walTerminal {
	wf.mu.Lock()
	defer wf.mu.Unlock()
	return walTerminal{ID: wf.id, Status: wf.st, Plan: wf.plan, Events: wf.eventsFrom(0)}
}

// newTerminal is terminalDoc's inverse: the registry entry of a workflow
// that ended before this process started.
func newTerminal(t *walTerminal) *workflow {
	wf := &workflow{
		id:     t.ID,
		shard:  t.Status.Shard,
		live:   t.Status.Mode == wire.ModeLive,
		events: recordsOf(t.Events),
		plan:   t.Plan,
	}
	wf.settle(t.Status)
	return wf
}

// walLogGrid journals a shared-grid registration on its owning shard.
func (s *Server) walLogGrid(g *sharedGrid) {
	sh := s.shards[g.shard]
	w := sh.wal
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.append(s.metrics, wire.WALGrid, rawPair("name", g.name, "spec", g.raw))
}

// snapshot writes the shard's full state and truncates its log. It must
// run where tracker access is safe: the shard's worker goroutine (the
// periodic tick), or before workers start / after they exit (recovery
// and shutdown snapshots).
func (sh *shard) snapshot() {
	w := sh.wal
	if w == nil {
		return
	}
	s := sh.srv
	doc := shardSnapshot{V: wire.Version}

	s.mu.RLock()
	doc.Seq = s.seq
	retained := append([]string(nil), s.retained...)
	s.mu.RUnlock()

	s.gridMu.RLock()
	for name, g := range s.grids {
		if g.shard == sh.id {
			doc.Grids = append(doc.Grids, walGrid{Name: name, Spec: g.raw})
		}
	}
	s.gridMu.RUnlock()
	sort.Slice(doc.Grids, func(i, j int) bool { return doc.Grids[i].Name < doc.Grids[j].Name })

	liveIDs := make([]string, 0, len(sh.live))
	for id := range sh.live {
		liveIDs = append(liveIDs, id)
	}
	sort.Strings(liveIDs)
	for _, id := range liveIDs {
		doc.Live = append(doc.Live, sh.walStateDoc(sh.live[id], true))
	}

	for _, id := range retained {
		wf, ok := s.lookup(id)
		if !ok || wf.shard != sh.id {
			continue
		}
		doc.Terminal = append(doc.Terminal, wf.terminalDoc())
	}

	sh.histMu.Lock()
	for tenant, repo := range sh.hist {
		doc.Tenants = append(doc.Tenants, tenantHistory{Tenant: tenant, Alpha: repo.Alpha(), Cells: repo.Export()})
	}
	sh.histMu.Unlock()
	sort.Slice(doc.Tenants, func(i, j int) bool { return doc.Tenants[i].Tenant < doc.Tenants[j].Tenant })

	w.mu.Lock()
	defer w.mu.Unlock()
	// Pending under the same lock as the rotation: a submission landing
	// after this point blocks on w.mu and lands in the fresh segment.
	order := w.pendOrder[:0]
	for _, id := range w.pendOrder {
		b, ok := w.pend[id]
		if !ok {
			continue
		}
		order = append(order, id)
		doc.Pending = append(doc.Pending, walSubmission{ID: id, Body: b})
		if adm, ok := w.admit[id]; ok {
			doc.Admissions = append(doc.Admissions, adm)
		}
	}
	w.pendOrder = order
	for i := range doc.Live {
		doc.Live[i].Body = w.bodies[doc.Live[i].ID]
	}
	data, err := json.Marshal(doc)
	if err == nil {
		err = w.store.Rotate(data)
	}
	if err != nil {
		sh.srv.metrics.walErrors.Add(1)
		log.Printf("aheftd: shard %d snapshot: %v", sh.id, err)
	}
	// The rotation dropped the records every live chain was built on: the
	// snapshot entries are the bases now.
	for i := range doc.Live {
		sh.live[doc.Live[i].ID].rebase(&doc.Live[i], err == nil)
	}
}

// Crash simulates a SIGKILL for recovery tests: every WAL store is
// frozen exactly as the disk would be at the kill instant (no flush, no
// final snapshot), then the workers are torn down. The Server is
// unusable afterwards; reopen the data directory with Open.
func (s *Server) Crash() {
	for _, sh := range s.shards {
		if sh.wal != nil {
			sh.wal.store.Disable()
		}
	}
	s.submitMu.Lock()
	if !s.draining {
		s.draining = true
		for _, sh := range s.shards {
			// Kill, not Close: queued submissions must NOT start — the
			// kill instant froze them in the WAL as pending, and starting
			// them now would race the teardown. They come back on reopen.
			sh.adm.Kill()
		}
	}
	s.submitMu.Unlock()
	s.cancelRun()
	s.workers.Wait()
}

// --- recovery ---------------------------------------------------------

// recoveredWorkflow accumulates one workflow's records across the
// snapshot and the log tail.
type recoveredWorkflow struct {
	id   string
	body json.RawMessage
	adm  *walAdmission // fair-queue credentials, if journalled
	// The state chain folded so far: last is the newest record (its
	// bookkeeping fields; State, Patch and Events are folded into state
	// and events and dropped), broken why the chain cannot be trusted.
	last     *walState
	state    *feedback.TrackerState
	events   []wire.Event
	broken   error
	terminal *walTerminal
	rejected bool
	order    int // arrival order for pending re-enqueue
}

// fold applies the workflow's next state record (LSN order): a whole
// state replaces the chain, a patch extends it by exactly one rev.
// Nothing applies onto a broken chain until a whole state replaces it.
func (rw *recoveredWorkflow) fold(p *walState) {
	if p.Body != nil {
		rw.body = p.Body
	}
	switch {
	case p.State != nil:
		rw.state, rw.events, rw.broken = p.State, p.Events, nil
	case rw.broken != nil:
		return
	case p.Patch == nil:
		rw.broken = fmt.Errorf("state record rev %d holds neither state nor patch", p.Rev)
	case rw.state == nil:
		rw.broken = fmt.Errorf("journal gap: patch rev %d with no state before it", p.Rev)
	case p.Rev != rw.last.Rev+1:
		rw.broken = fmt.Errorf("journal gap: patch rev %d onto rev %d", p.Rev, rw.last.Rev)
	default:
		if err := rw.state.Patch(*p.Patch); err != nil {
			rw.broken = fmt.Errorf("patch rev %d: %w", p.Rev, err)
			break
		}
		for _, ev := range p.Events {
			if ev.Seq != len(rw.events) {
				rw.broken = fmt.Errorf("patch rev %d: event seq %d after %d events", p.Rev, ev.Seq, len(rw.events))
				break
			}
			rw.events = append(rw.events, ev)
		}
	}
	p.State, p.Patch, p.Events = nil, nil, nil
	rw.last = p
}

// RecoveryStats describes the last startup recovery: what came back,
// how much journal was read to get there, and where the time went
// (load: reading and framing the logs; fold: decoding and folding
// records; restore: rebuilding grids, trackers and queues; snapshot:
// the fresh snapshot that truncates what was replayed).
type RecoveryStats struct {
	Workflows  uint64  `json:"recovered_workflows"`
	Ms         float64 `json:"recovery_ms"`
	LoadMs     float64 `json:"load_ms"`
	FoldMs     float64 `json:"fold_ms"`
	RestoreMs  float64 `json:"restore_ms"`
	SnapshotMs float64 `json:"snapshot_ms"`
	WALBytes   int64   `json:"wal_bytes_replayed"`
	WALRecords int     `json:"wal_records_replayed"`
}

// String renders the statistics for the daemon's startup line and
// loadgen's chaos verdict.
func (r RecoveryStats) String() string {
	return fmt.Sprintf("recovered %d live workflows in %.1fms (load %.1f, fold %.1f, restore %.1f, snapshot %.1f; %d records, %d bytes replayed)",
		r.Workflows, r.Ms, r.LoadMs, r.FoldMs, r.RestoreMs, r.SnapshotMs, r.WALRecords, r.WALBytes)
}

// Recovery returns the last startup recovery's statistics (zero for a
// daemon without a data directory).
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// recoverState replays every shard directory under dataDir into the
// (not yet started) server: stores are opened (repairing torn tails),
// snapshots and log tails merged, and the registry, shards, grids,
// tenant histories and live trackers rebuilt. Orphan directories from a
// larger previous shard count are folded in and removed. Must run
// before the shard goroutines start.
func (s *Server) recoverState() error {
	start := time.Now()
	dataDir := s.cfg.DataDir
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	policy, err := durable.ParseSyncPolicy(s.cfg.WALSync)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}

	// Every existing shard-<i> directory, plus the 0..N-1 range the
	// current configuration owns.
	dirs := map[int]bool{}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	for _, e := range entries {
		var idx int
		if n, _ := fmt.Sscanf(e.Name(), "shard-%d", &idx); n == 1 && e.IsDir() && idx >= 0 {
			dirs[idx] = true
		}
	}
	for i := range s.shards {
		dirs[i] = true
	}
	idxs := make([]int, 0, len(dirs))
	for i := range dirs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)

	wfs := map[string]*recoveredWorkflow{}
	gridSpecs := map[string]json.RawMessage{}
	repos := map[int]map[string]*history.Repository{} // target shard -> tenant
	var terminals []walTerminal
	var maxSeq uint64
	orderCounter := 0

	repoFor := func(shardIdx int, tenant string, alpha float64) *history.Repository {
		byTenant := repos[shardIdx]
		if byTenant == nil {
			byTenant = map[string]*history.Repository{}
			repos[shardIdx] = byTenant
		}
		r := byTenant[tenant]
		if r == nil {
			r = history.New(alpha)
			byTenant[tenant] = r
		}
		return r
	}
	wfFor := func(id string) *recoveredWorkflow {
		rw := wfs[id]
		if rw == nil {
			rw = &recoveredWorkflow{id: id, order: orderCounter}
			orderCounter++
			wfs[id] = rw
		}
		if n := parseWorkflowSeq(id); n > maxSeq {
			maxSeq = n
		}
		return rw
	}

	// skip makes a record recovery cannot use loud: logged with its
	// position and counted in wal_records_skipped.
	skip := func(shardIdx int, r *wire.WALRecord, err error) {
		s.metrics.walSkipped.Add(1)
		log.Printf("aheftd: recovery: shard %d lsn %d: skipping %s record: %v", shardIdx, r.LSN, r.Kind, err)
	}
	// decode unmarshals a record payload that must name its subject.
	decode := func(shardIdx int, r *wire.WALRecord, into any, name *string) bool {
		err := json.Unmarshal(r.Data, into)
		if err == nil && *name == "" {
			err = fmt.Errorf("payload names no subject")
		}
		if err != nil {
			skip(shardIdx, r, err)
		}
		return err == nil
	}

	var st RecoveryStats
	var orphanDirs []string
	for _, idx := range idxs {
		dir := filepath.Join(dataDir, fmt.Sprintf("shard-%d", idx))
		loadStart := time.Now()
		var rec *durable.Recovered
		if idx < len(s.shards) {
			store, r, err := durable.Open(dir, policy, s.cfg.WALSyncInterval)
			if err != nil {
				return fmt.Errorf("server: shard %d wal: %w", idx, err)
			}
			s.shards[idx].wal = newShardWAL(store)
			rec = r
		} else {
			r, err := durable.Load(dir)
			if err != nil {
				return fmt.Errorf("server: orphan shard %d wal: %w", idx, err)
			}
			rec = r
			orphanDirs = append(orphanDirs, dir)
		}
		target := idx % len(s.shards)
		foldStart := time.Now()
		st.LoadMs += foldStart.Sub(loadStart).Seconds() * 1e3
		st.WALBytes += rec.Bytes
		st.WALRecords += len(rec.Records)

		if rec.Snapshot != nil {
			var snap shardSnapshot
			if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
				return fmt.Errorf("server: shard %d snapshot: %w", idx, err)
			}
			if snap.Seq > maxSeq {
				maxSeq = snap.Seq
			}
			for _, g := range snap.Grids {
				if _, ok := gridSpecs[g.Name]; !ok {
					gridSpecs[g.Name] = g.Spec
				}
			}
			for _, t := range snap.Tenants {
				repoFor(target, t.Tenant, t.Alpha).Import(t.Cells)
			}
			for _, p := range snap.Pending {
				rw := wfFor(p.ID)
				rw.body = p.Body
			}
			for i := range snap.Admissions {
				a := snap.Admissions[i]
				wfFor(a.ID).adm = &a
			}
			for i := range snap.Live {
				wfFor(snap.Live[i].ID).fold(&snap.Live[i])
			}
			for _, t := range snap.Terminal {
				rw := wfFor(t.ID)
				rw.terminal = &t
				terminals = append(terminals, t)
			}
		}
		for _, r := range rec.Records {
			switch r.Kind {
			case wire.WALSubmission:
				var p walSubmission
				if decode(idx, r, &p, &p.ID) {
					rw := wfFor(p.ID)
					rw.body = p.Body
					rw.rejected = false
				}
			case wire.WALReject:
				var p walReject
				if decode(idx, r, &p, &p.ID) {
					wfFor(p.ID).rejected = true
				}
			case wire.WALAdmission:
				var p walAdmission
				if decode(idx, r, &p, &p.ID) {
					wfFor(p.ID).adm = &p
				}
			case wire.WALGrid:
				var p walGrid
				if decode(idx, r, &p, &p.Name) {
					if _, ok := gridSpecs[p.Name]; !ok {
						gridSpecs[p.Name] = p.Spec
					}
				}
			case wire.WALState:
				var p walState
				if !decode(idx, r, &p, &p.ID) {
					// A link of the chain is gone. json.Unmarshal fills what it
					// can around a mistyped field, so the ID usually survives;
					// when it does not, the rev gap at the workflow's next
					// record breaks the chain instead.
					if p.ID != "" {
						wfFor(p.ID).broken = fmt.Errorf("state record at lsn %d does not decode", r.LSN)
					}
					continue
				}
				wfFor(p.ID).fold(&p)
				// History deltas replay in LSN order regardless of whether
				// the workflow itself survives to restoration.
				repo := repoFor(target, p.Tenant, 0)
				for _, d := range p.Deltas {
					_ = repo.Record(d.Op, grid.ID(d.Resource), d.Duration)
				}
			case wire.WALTerminal:
				var p walTerminal
				if !decode(idx, r, &p, &p.ID) {
					// Without its terminal record the workflow would come
					// back live from its last state record: fail it instead.
					if p.ID != "" {
						wfFor(p.ID).broken = fmt.Errorf("terminal record at lsn %d does not decode", r.LSN)
					}
					continue
				}
				rw := wfFor(p.ID)
				rw.terminal = &p
				terminals = append(terminals, p)
			default:
				skip(idx, r, fmt.Errorf("unknown record kind"))
			}
		}
		st.FoldMs += time.Since(foldStart).Seconds() * 1e3
	}
	restoreStart := time.Now()

	// Install tenant histories on their shards before any tracker is
	// restored against them.
	for shardIdx, byTenant := range repos {
		sh := s.shards[shardIdx]
		names := make([]string, 0, len(byTenant))
		for t := range byTenant {
			names = append(names, t)
		}
		sort.Strings(names)
		sh.histMu.Lock()
		if sh.hist == nil {
			sh.hist = make(map[string]*history.Repository)
		}
		for _, t := range names {
			if _, ok := sh.hist[t]; !ok {
				sh.hist[t] = byTenant[t]
				sh.histOrder = append(sh.histOrder, t)
			}
		}
		sh.histMu.Unlock()
	}

	// Shared grids: re-register under the current shard count. Ledgers
	// start empty and reassemble from their restored residents.
	gridNames := make([]string, 0, len(gridSpecs))
	for name := range gridSpecs {
		gridNames = append(gridNames, name)
	}
	sort.Strings(gridNames)
	for _, name := range gridNames {
		spec, err := wire.DecodeGridSpec(gridSpecs[name], s.cfg.Limits)
		if err != nil {
			log.Printf("aheftd: recovery: grid %q spec: %v", name, err)
			continue
		}
		s.grids[name] = newSharedGrid(name, gridSpecs[name], spec, len(s.shards), s.cfg.GridShareCap)
	}

	// Terminal records: frozen, queryable, retained under the cap. The
	// terminals list preserves finish order for the retention sweep; the
	// per-workflow latest record is the one registered.
	seenTerm := make(map[string]bool, len(terminals))
	for i := range terminals {
		id := terminals[i].ID
		rw := wfs[id]
		if rw == nil || rw.terminal == nil || seenTerm[id] {
			continue
		}
		seenTerm[id] = true
		t := rw.terminal
		s.wfs[t.ID] = newTerminal(t)
		s.retire(t.ID)
	}

	// Sort what is neither terminal nor rejected: a broken chain fails
	// loudly, a folded state is a live resident, a bare body is pending.
	ids := make([]string, 0, len(wfs))
	for id := range wfs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var liveIDs []string
	var pending []*recoveredWorkflow
	for _, id := range ids {
		switch rw := wfs[id]; {
		case rw.terminal != nil || rw.rejected:
		case rw.broken != nil:
			log.Printf("aheftd: recovery: workflow %s: %v", id, rw.broken)
			s.failRecovered(id, rw.broken)
		case rw.state != nil:
			liveIDs = append(liveIDs, id)
		case rw.body != nil:
			pending = append(pending, rw)
		}
	}

	// Live residents: restore trackers, re-park, re-attach.
	for _, id := range liveIDs {
		if err := s.restoreLive(wfs[id]); err != nil {
			log.Printf("aheftd: recovery: workflow %s: %v", id, err)
			s.failRecovered(id, err)
			continue
		}
		st.Workflows++
	}

	// Pending submissions: re-enqueue in arrival order.
	sort.Slice(pending, func(i, j int) bool { return pending[i].order < pending[j].order })
	for _, rw := range pending {
		if err := s.requeueRecovered(rw); err != nil {
			log.Printf("aheftd: recovery: workflow %s: %v", rw.id, err)
			s.failRecovered(rw.id, err)
		}
	}

	s.mu.Lock()
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
	s.mu.Unlock()

	// Everything recovered is covered by a fresh snapshot, so the next
	// startup replays one snapshot and a short tail, and the old
	// (possibly repaired) segments are swept. It also gives every restored
	// workflow its journal base.
	snapStart := time.Now()
	st.RestoreMs = snapStart.Sub(restoreStart).Seconds() * 1e3
	for _, sh := range s.shards {
		sh.snapshot()
	}
	for _, dir := range orphanDirs {
		if err := os.RemoveAll(dir); err != nil {
			log.Printf("aheftd: recovery: remove %s: %v", dir, err)
		}
	}
	st.SnapshotMs = time.Since(snapStart).Seconds() * 1e3
	st.Ms = time.Since(start).Seconds() * 1e3
	s.recovery = st
	return nil
}

// restoreLive rebuilds one live workflow from its journalled state and
// parks it on its shard. Runs before workers start, so touching the
// tracker here is safe.
func (s *Server) restoreLive(rw *recoveredWorkflow) error {
	if rw.body == nil {
		return fmt.Errorf("live state without submission body")
	}
	wf, gref, err := s.buildWorkflow(rw.id, rw.body)
	if err != nil {
		return fmt.Errorf("rebuild submission: %w", err)
	}
	if !wf.live {
		return fmt.Errorf("state record for non-live workflow")
	}
	sh := s.shards[wf.shard]
	cfg := feedback.Config{
		Graph:             wf.sub.Graph,
		Prior:             cost.Exact(wf.sub.Comp),
		Pool:              wf.sub.Pool,
		History:           sh.historyFor(wf.tenant),
		Policy:            wf.pol,
		Opts:              wf.opts,
		VarianceThreshold: wf.varThr,
	}
	if gref != nil {
		cfg.Pool = gref.pool
		cfg.Occupancy = gref.ledger.View(wf.id)
	}
	tr, err := feedback.Restore(cfg, rw.state)
	if err != nil {
		return err
	}
	wf.tracker = tr
	// No journal base yet (the next record would be a whole state): the
	// snapshot that ends recovery provides one.
	wf.walRev = rw.last.Rev
	wf.ackedGen = rw.last.AckedGen
	wf.fastPath = rw.last.FastPath
	wf.upgraded = rw.last.Upgraded
	trigger := rw.last.PlanTrigger
	if trigger == "" {
		trigger = "initial"
	}
	plan := livePlanDoc(wf, trigger)
	wf.mu.Lock()
	wf.st.State = StateRunning
	wf.startedAt = time.Now()
	wf.plan = plan
	wf.st.Generation = plan.Generation
	wf.st.Reports = rw.last.Reports
	wf.events = recordsOf(rw.events)
	wf.mu.Unlock()

	s.mu.Lock()
	s.wfs[wf.id] = wf
	s.mu.Unlock()
	sh.live[wf.id] = wf
	if gref != nil {
		gref.attach(wf)
	}
	if w := sh.wal; w != nil {
		w.mu.Lock()
		w.bodies[wf.id] = rw.body
		w.mu.Unlock()
	}
	s.metrics.liveResident.Add(1)
	s.metrics.inflightReserve()
	// A fast-path plan that crashed before its upgrade still owes one:
	// re-arm it so "every fast-path plan is upgraded or terminal" holds
	// across restarts. The send parks until the shard worker starts.
	if wf.fastPath && !wf.upgraded {
		sh.scheduleUpgrade(wf)
	}
	return nil
}

// requeueRecovered re-enqueues an accepted-but-unstarted submission
// into the fair queue under its journalled admission credentials (the
// wire options serve as the fallback for logs written before the
// admission record existed). Recovery runs before the shard workers
// start, so the weighted fair order re-emerges as soon as the worker
// begins draining — a tenant's pre-crash flood cannot jump the queue.
func (s *Server) requeueRecovered(rw *recoveredWorkflow) error {
	wf, _, err := s.buildWorkflow(rw.id, rw.body)
	if err != nil {
		return fmt.Errorf("rebuild submission: %w", err)
	}
	class, weight := wf.class, wf.weight
	if rw.adm != nil {
		class, weight = rw.adm.Class, rw.adm.Weight
		wf.class, wf.weight = class, weight
	}
	sh := s.shards[wf.shard]
	s.mu.Lock()
	s.wfs[wf.id] = wf
	s.mu.Unlock()
	if w := sh.wal; w != nil {
		w.mu.Lock()
		w.pend[wf.id] = rw.body
		w.pendOrder = append(w.pendOrder, wf.id)
		w.admit[wf.id] = walAdmission{ID: wf.id, Tenant: wf.tenant, Class: class, Weight: weight}
		w.mu.Unlock()
	}
	s.metrics.inflightReserve()
	if err := sh.adm.Enqueue(admission.Item{ID: wf.id, Tenant: wf.tenant, Class: class, Weight: weight, Value: wf}); err != nil {
		s.metrics.inflightRelease()
		s.forget(wf.id)
		if w := sh.wal; w != nil {
			w.mu.Lock()
			delete(w.pend, wf.id)
			delete(w.admit, wf.id)
			w.mu.Unlock()
		}
		return fmt.Errorf("shard %d admission refused during recovery: %w", wf.shard, err)
	}
	return nil
}

// failRecovered registers a synthetic failed terminal for a journalled
// workflow that could not be brought back (its client was told 202 and
// deserves an answer, not a 404).
func (s *Server) failRecovered(id string, cause error) {
	msg := fmt.Sprintf("lost in recovery: %v", cause)
	wf := newTerminal(&walTerminal{
		ID:     id,
		Status: wire.Status{ID: id, State: StateFailed, Error: msg, Events: 2},
		Events: []wire.Event{{Kind: "submitted"}, {Kind: "failed", Error: msg}},
	})
	s.mu.Lock()
	s.wfs[id] = wf
	s.mu.Unlock()
	s.retire(id)
	s.metrics.failed.Add(1)
}

// parseWorkflowSeq extracts N from a daemon-assigned "wf-%08d" ID.
func parseWorkflowSeq(id string) uint64 {
	var n uint64
	if c, _ := fmt.Sscanf(id, "wf-%d", &n); c == 1 {
		return n
	}
	return 0
}

// --- readiness gate + versioned health --------------------------------

// Gate is the recovering/ready switch in front of the daemon's handler:
// every request is answered 503 {"status":"recovering"} until Ready
// installs the real handler. cmd/aheftd serves the gate immediately and
// flips it once Open's replay completes, so a probe (or loadgen's
// waitHealthy) distinguishes "recovering" from "ready" by status code.
type Gate struct {
	h atomic.Pointer[http.Handler]
}

// NewGate returns a gate in the recovering state.
func NewGate() *Gate { return &Gate{} }

// Ready installs the recovered daemon's handler.
func (g *Gate) Ready(h http.Handler) { g.h.Store(&h) }

func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := g.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"status":  "recovering",
		"version": buildinfo.String(),
	})
}

// handleHealthzV1 is the readiness endpoint: once a Server answers it at
// all, replay has completed (Open is synchronous), so it reports ready
// or draining plus the recovery and build identity a supervisor or
// load generator wants to gate on.
func (s *Server) handleHealthzV1(w http.ResponseWriter, r *http.Request) {
	s.submitMu.RLock()
	draining := s.draining
	s.submitMu.RUnlock()
	status := "ready"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Version  string `json:"version"`
		Shards   int    `json:"shards"`
		Durable  bool   `json:"durable"`
		Inflight int64  `json:"inflight"`
		RecoveryStats
	}{status, buildinfo.String(), len(s.shards), s.cfg.DataDir != "", s.metrics.inflight.Load(), s.recovery})
}
