package server

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aheft/internal/admission"
	"aheft/internal/buildinfo"
	"aheft/internal/durable"
	"aheft/internal/feedback"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/jsonscan"
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
		m.count(func(c *MetricsDoc) { c.WALErrors++ })
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
		sh.srv.metrics.count(func(c *MetricsDoc) { c.WALErrors++ })
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
	seen     walPos // first record: arrival order for pending re-enqueue
	endedAt  walPos // first terminal record: finish order for retention
}

// walPos orders records across shard directories as one pass over the
// directories in index order would meet them: the directory, then a count
// that only grows while one fold walks it.
type walPos struct{ dir, n int }

func (a walPos) before(b walPos) bool { return a.dir < b.dir || (a.dir == b.dir && a.n < b.n) }

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

// absorb folds in what a fold of later directories (another target
// shard's) holds for the same workflow, as if its records had followed
// rw's in one log: what it saw replaces, what it did not see stays. That
// equals the one-pass fold whenever the later chain starts with a whole
// state, as every chain the daemon writes does; one that starts with a
// patch arrives broken and fails the workflow. (A workflow sits in two
// directories only after a crash between the snapshots that close a
// recovery under a changed shard count.)
func (rw *recoveredWorkflow) absorb(later *recoveredWorkflow) {
	if later.body != nil {
		rw.body, rw.rejected = later.body, false
	}
	if later.adm != nil {
		rw.adm = later.adm
	}
	if later.last != nil || later.broken != nil {
		rw.last, rw.state, rw.events, rw.broken = later.last, later.state, later.events, later.broken
	}
	if later.terminal != nil {
		if rw.terminal == nil {
			rw.endedAt = later.endedAt
		}
		rw.terminal = later.terminal
	}
	rw.rejected = rw.rejected || later.rejected
}

// decode reads a state record's payload in one pass with json.Unmarshal's
// semantics (FuzzDecodeWALStateParity): a patch record — nine in ten of a
// log — without reflection; the whole State that starts a chain through
// json.Unmarshal where it stands.
func (p *walState) decode(data []byte) error {
	sc := jsonscan.New(data)
	sc.Object("id", &p.ID, "tenant", &p.Tenant,
		"body", func() { p.Body = append(p.Body[:0], sc.Raw()...) },
		"rev", &p.Rev, "acked_gen", &p.AckedGen, "reports", &p.Reports, "plan_trigger", &p.PlanTrigger,
		"fast_path", &p.FastPath, "upgraded", &p.Upgraded,
		"state", func() {
			jsonscan.Ptr(sc, &p.State, func(st *feedback.TrackerState) { sc.Fail(json.Unmarshal(sc.Raw(), st)) })
		},
		"patch", func() {
			jsonscan.Ptr(sc, &p.Patch, func(sp *feedback.StatePatch) { feedback.DecodePatch(sc, sp) })
		},
		"deltas", func() {
			p.Deltas = jsonscan.Array(sc, p.Deltas, func(d *feedback.HistoryDelta) { feedback.DecodeDelta(sc, d) })
		},
		"events", func() {
			p.Events = jsonscan.Array(sc, p.Events, func(ev *wire.Event) { wire.DecodeEvent(sc, ev) })
		})
	return sc.End()
}

// decode reads a submission record's payload. The body is copied out of
// the record (a view of the log's read buffer): it outlives the replay.
func (p *walSubmission) decode(data []byte) error {
	sc := jsonscan.New(data)
	sc.Object("id", &p.ID, "body", func() { p.Body = append(p.Body[:0], sc.Raw()...) })
	return sc.End()
}

// RecoveryStats describes the last startup recovery: what came back,
// how much journal was read to get there, and where the time went
// (load: reading and framing the logs; fold: decoding and folding
// records; restore: rebuilding grids, trackers and queues; snapshot:
// the fresh snapshots that truncate what was replayed). The four add up
// to Ms, less the directory listing. Directories are loaded and folded
// side by side, so LoadMs and FoldMs are not spans of their own: they
// are that section's wall time, split between the two as the fold
// workers' summed busy time in each splits.
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

// recoveryFold accumulates what the directories that fold onto one target
// shard hold. Each target's fold runs on one goroutine and touches nothing
// another's does (its own directories, stores and tenant histories), so
// the folds run side by side and recoverState merges what they gathered.
type recoveryFold struct {
	s      *Server
	dir    int // the directory being folded
	n      int // records given a walPos so far
	wfs    map[string]*recoveredWorkflow
	grids  map[string]recoveredGrid
	repos  map[string]*history.Repository // by tenant
	maxSeq uint64

	orphans    []string
	load, fold time.Duration // busy time reading and framing / decoding and folding
	bytes      int64
	records    int
}

// recoveredGrid is a shared grid's spec and the directory it was first
// met in: of several registrations the first in directory order counts.
type recoveredGrid struct {
	dir  int
	spec json.RawMessage
}

func (f *recoveryFold) pos() walPos {
	f.n++
	return walPos{f.dir, f.n}
}

func (f *recoveryFold) repoFor(tenant string, alpha float64) *history.Repository {
	r := f.repos[tenant]
	if r == nil {
		r = history.New(alpha)
		f.repos[tenant] = r
	}
	return r
}

func (f *recoveryFold) wfFor(id string) *recoveredWorkflow {
	rw := f.wfs[id]
	if rw == nil {
		rw = &recoveredWorkflow{id: id, seen: f.pos()}
		f.wfs[id] = rw
	}
	if n := parseWorkflowSeq(id); n > f.maxSeq {
		f.maxSeq = n
	}
	return rw
}

func (f *recoveryFold) gridSpec(name string, spec json.RawMessage) {
	if _, ok := f.grids[name]; !ok {
		f.grids[name] = recoveredGrid{f.dir, spec}
	}
}

func (f *recoveryFold) terminal(t *walTerminal) {
	rw := f.wfFor(t.ID)
	if rw.terminal == nil {
		rw.endedAt = f.pos()
	}
	rw.terminal = t
}

// skip makes a record recovery cannot use loud: logged with its
// position and counted in wal_records_skipped.
func (f *recoveryFold) skip(r *wire.WALRecord, err error) {
	f.s.metrics.count(func(c *MetricsDoc) { c.WALRecordsSkipped++ })
	log.Printf("aheftd: recovery: shard %d lsn %d: skipping %s record: %v", f.dir, r.LSN, r.Kind, err)
}

// decode reads a record payload that must name its subject: with the
// payload's own decoder where it has one, json.Unmarshal otherwise.
func (f *recoveryFold) decode(r *wire.WALRecord, into any, name *string) bool {
	var err error
	if d, ok := into.(interface{ decode([]byte) error }); ok {
		err = d.decode(r.Data)
	} else {
		err = json.Unmarshal(r.Data, into)
	}
	if err == nil && *name == "" {
		err = fmt.Errorf("payload names no subject")
	}
	if err != nil {
		f.skip(r, err)
	}
	return err == nil
}

// directory opens (or, for an orphan of a larger shard count, loads)
// shard directory idx and folds its snapshot and log tail in, one record
// decoded at a time: parked payloads would be the log a second time over.
func (f *recoveryFold) directory(idx int, policy durable.SyncPolicy) error {
	s := f.s
	f.dir = idx
	dir := filepath.Join(s.cfg.DataDir, fmt.Sprintf("shard-%d", idx))
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
		f.orphans = append(f.orphans, dir)
	}
	foldStart := time.Now()
	f.load += foldStart.Sub(loadStart)
	f.bytes += rec.Bytes
	f.records += len(rec.Records)

	if rec.Snapshot != nil {
		var snap shardSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return fmt.Errorf("server: shard %d snapshot: %w", idx, err)
		}
		if snap.Seq > f.maxSeq {
			f.maxSeq = snap.Seq
		}
		for _, g := range snap.Grids {
			f.gridSpec(g.Name, g.Spec)
		}
		for _, t := range snap.Tenants {
			f.repoFor(t.Tenant, t.Alpha).Import(t.Cells)
		}
		for _, p := range snap.Pending {
			f.wfFor(p.ID).body = p.Body
		}
		for i := range snap.Admissions {
			f.wfFor(snap.Admissions[i].ID).adm = &snap.Admissions[i]
		}
		for i := range snap.Live {
			f.wfFor(snap.Live[i].ID).fold(&snap.Live[i])
		}
		for i := range snap.Terminal {
			f.terminal(&snap.Terminal[i])
		}
	}
	for _, r := range rec.Records {
		f.record(r)
	}
	f.fold += time.Since(foldStart)
	return nil
}

// record folds one log record in.
func (f *recoveryFold) record(r *wire.WALRecord) {
	switch r.Kind {
	case wire.WALSubmission:
		var p walSubmission
		if f.decode(r, &p, &p.ID) {
			rw := f.wfFor(p.ID)
			rw.body = p.Body
			rw.rejected = false
		}
	case wire.WALReject:
		var p walReject
		if f.decode(r, &p, &p.ID) {
			f.wfFor(p.ID).rejected = true
		}
	case wire.WALAdmission:
		var p walAdmission
		if f.decode(r, &p, &p.ID) {
			f.wfFor(p.ID).adm = &p
		}
	case wire.WALGrid:
		var p walGrid
		if f.decode(r, &p, &p.Name) {
			f.gridSpec(p.Name, p.Spec)
		}
	case wire.WALState:
		var p walState
		if !f.decode(r, &p, &p.ID) {
			// A link of the chain is gone. The ID leads the payload, so it
			// usually survives a field that does not decode; when it does
			// not, the rev gap at the workflow's next record breaks the
			// chain instead.
			if p.ID != "" {
				f.wfFor(p.ID).broken = fmt.Errorf("state record at lsn %d does not decode", r.LSN)
			}
			return
		}
		f.wfFor(p.ID).fold(&p)
		// History deltas replay in LSN order regardless of whether
		// the workflow itself survives to restoration.
		repo := f.repoFor(p.Tenant, 0)
		for _, d := range p.Deltas {
			_ = repo.Record(d.Op, grid.ID(d.Resource), d.Duration)
		}
	case wire.WALTerminal:
		var p walTerminal
		if !f.decode(r, &p, &p.ID) {
			// Without its terminal record the workflow would come
			// back live from its last state record: fail it instead.
			if p.ID != "" {
				f.wfFor(p.ID).broken = fmt.Errorf("terminal record at lsn %d does not decode", r.LSN)
			}
			return
		}
		f.terminal(&p)
	default:
		f.skip(r, fmt.Errorf("unknown record kind"))
	}
}

// sideBySide runs fn(0) … fn(n-1) on at most GOMAXPROCS goroutines and
// returns when all have.
func sideBySide(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// recoverState replays every shard directory under dataDir into the
// (not yet started) server: stores are opened (repairing torn tails),
// snapshots and log tails merged, and the registry, shards, grids,
// tenant histories and live trackers rebuilt. Orphan directories from a
// larger previous shard count are folded in and removed. Must run
// before the shard goroutines start.
//
// The directories are folded side by side, one recoveryFold per target
// shard (directory index modulo the shard count, so an orphan's tenant
// histories follow its target's in index order on one goroutine), and the
// folds merged in directory order: what comes back is what one pass over
// the directories would bring back, however the folds interleave.
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
	// current configuration owns, by target shard in index order.
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
	byTarget := make([][]int, len(s.shards))
	for _, idx := range idxs {
		byTarget[idx%len(s.shards)] = append(byTarget[idx%len(s.shards)], idx)
	}

	folds := make([]*recoveryFold, len(s.shards))
	errs := make([]error, len(s.shards))
	foldStart := time.Now()
	sideBySide(len(folds), func(i int) {
		f := &recoveryFold{s: s, wfs: map[string]*recoveredWorkflow{},
			grids: map[string]recoveredGrid{}, repos: map[string]*history.Repository{}}
		folds[i] = f
		for _, idx := range byTarget[i] {
			if errs[i] = f.directory(idx, policy); errs[i] != nil {
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Merge. Targets' folds hold different workflows, unless a recovery
	// under a changed shard count was cut short (see absorb).
	var st RecoveryStats
	var busyLoad, busyFold time.Duration
	wfs := map[string]*recoveredWorkflow{}
	grids := map[string]recoveredGrid{}
	var maxSeq uint64
	var orphanDirs []string
	for _, f := range folds {
		for id, rw := range f.wfs {
			switch prev := wfs[id]; {
			case prev == nil:
				wfs[id] = rw
			case prev.seen.before(rw.seen):
				prev.absorb(rw)
			default:
				rw.absorb(prev)
				wfs[id] = rw
			}
		}
		for name, g := range f.grids {
			if prev, ok := grids[name]; !ok || g.dir < prev.dir {
				grids[name] = g
			}
		}
		maxSeq = max(maxSeq, f.maxSeq)
		orphanDirs = append(orphanDirs, f.orphans...)
		busyLoad += f.load
		busyFold += f.fold
		st.WALBytes += f.bytes
		st.WALRecords += f.records
	}
	// Load and fold overlap across the folds: the section's wall time is
	// reported, split as the folds' summed busy time in each splits.
	restoreStart := time.Now()
	wall := restoreStart.Sub(foldStart).Seconds() * 1e3
	st.LoadMs = wall * float64(busyLoad) / float64(busyLoad+busyFold)
	st.FoldMs = wall - st.LoadMs

	// Install tenant histories on their shards before any tracker is
	// restored against them.
	for i, f := range folds {
		sh := s.shards[i]
		names := make([]string, 0, len(f.repos))
		for t := range f.repos {
			names = append(names, t)
		}
		sort.Strings(names)
		sh.histMu.Lock()
		sh.hist = f.repos
		sh.histOrder = names
		sh.histMu.Unlock()
	}

	// Shared grids: re-register under the current shard count. Ledgers
	// start empty and reassemble from their restored residents.
	gridNames := make([]string, 0, len(grids))
	for name := range grids {
		gridNames = append(gridNames, name)
	}
	sort.Strings(gridNames)
	for _, name := range gridNames {
		spec, err := wire.DecodeGridSpec(grids[name].spec, s.cfg.Limits)
		if err != nil {
			log.Printf("aheftd: recovery: grid %q spec: %v", name, err)
			continue
		}
		s.grids[name] = newSharedGrid(name, grids[name].spec, spec, len(s.shards), s.cfg.GridShareCap)
	}

	// Sort the workflows: a terminal record is frozen, a broken chain
	// fails loudly, a folded state is a live resident, a bare body is
	// pending.
	ids := make([]string, 0, len(wfs))
	for id := range wfs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var ended, lost, live, pending []*recoveredWorkflow
	for _, id := range ids {
		switch rw := wfs[id]; {
		case rw.terminal != nil:
			ended = append(ended, rw)
		case rw.rejected:
		case rw.broken != nil:
			lost = append(lost, rw)
		case rw.state != nil:
			live = append(live, rw)
		case rw.body != nil:
			pending = append(pending, rw)
		}
	}

	// Terminal records: queryable, retained under the cap in the order
	// the workflows finished; a workflow's latest record is the one
	// registered.
	sort.Slice(ended, func(i, j int) bool { return ended[i].endedAt.before(ended[j].endedAt) })
	for _, rw := range ended {
		wf := newTerminal(rw.terminal)
		// Snapshots keep a terminal record with the shard it names: one
		// that ran on a shard a smaller count no longer has moves over.
		wf.shard %= len(s.shards)
		s.wfs[rw.id] = wf
		s.retire(rw.id)
	}
	for _, rw := range lost {
		log.Printf("aheftd: recovery: workflow %s: %v", rw.id, rw.broken)
		s.failRecovered(rw.id, rw.broken)
	}

	// Live residents: restore trackers, re-park, re-attach.
	for _, rw := range live {
		if err := s.restoreLive(rw); err != nil {
			log.Printf("aheftd: recovery: workflow %s: %v", rw.id, err)
			s.failRecovered(rw.id, err)
			continue
		}
		st.Workflows++
	}

	// Pending submissions: re-enqueue in arrival order.
	sort.Slice(pending, func(i, j int) bool { return pending[i].seen.before(pending[j].seen) })
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
	sideBySide(len(s.shards), func(i int) { s.shards[i].snapshot() })
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
	cfg := sh.trackerConfig(wf)
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
	wf.setPlan(livePlanDoc(wf, trigger))
	wf.mu.Lock()
	wf.st.State = StateRunning
	wf.startedAt = time.Now()
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
	s.metrics.count(func(c *MetricsDoc) { c.LiveResident++ })
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
	s.metrics.count(func(c *MetricsDoc) { c.Failed++ })
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
	}{status, buildinfo.String(), len(s.shards), s.cfg.DataDir != "", s.metrics.inflight(), s.recovery})
}
