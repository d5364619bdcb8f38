package server

import (
	"encoding/json"
	"fmt"
	"log"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

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
// submission path logs once its enqueue succeeds; everything else appends
// from the shard's single worker goroutine), so the WAL adds one ordered
// write per state change and no new locking on the planning hot path. On
// startup, Open folds the newest snapshot and the log tail, each record
// walked once as the store reads it: live workflows come back resident
// with their current plan and feedback state, shared-grid ledgers
// reassemble from their restored residents, pending submissions
// re-enqueue, and duplicate report replays are acked idempotently (see
// applyReport / feedback.AlreadyApplied). A data directory keeps the
// shard count of its first start (its layout record; a start under
// another count refuses), so each shard recovers from its own directory
// alone. A restart snapshots a shard whose log already spans an earlier
// start or held a record it skipped; otherwise it writes nothing but a
// terminal record per workflow it could not restore.
//
// Record kinds (wire.WAL*): a submission logs its raw body once it is
// queued (a refused one writes nothing; its fair-queue credentials are
// rebuilt from the body); a state record carries one live workflow's
// post-apply feedback state — as a patch (feedback.StatePatch) against
// the state the workflow's previous record left, with the events
// appended since and that batch's history deltas; a terminal record freezes the final
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
// entry it just wrote, and a restored workflow goes on from the state its
// chain folded to; a snapshot or an append that failed leaves it without a
// base: its next record is a whole state.
// Logs from before patches existed hold whole states only and recover
// through the same fold, and older logs' admission and reject records are
// read but no longer written.

// walSubmission is the payload of a wire.WALSubmission record.
type walSubmission struct {
	ID   string          `json:"id"`
	Body json.RawMessage `json:"body"`
}

// walReject, in a log written before refused submissions stopped being
// journalled, voids the submission logged before it.
type walReject struct {
	ID string `json:"id"`
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
	V        int             `json:"v"`
	Seq      uint64          `json:"seq"`
	Grids    []walGrid       `json:"grids,omitempty"`
	Pending  []walSubmission `json:"pending,omitempty"`
	Live     []walState      `json:"live,omitempty"`
	Terminal []walTerminal   `json:"terminal,omitempty"`
	Tenants  []tenantHistory `json:"tenants,omitempty"`
}

// The journal's documents encode by hand, as json.Marshal would but for
// the raw submission and grid-spec bodies, which are copied verbatim:
// they were validated when decoded off the wire, and re-compacting them
// on every append and snapshot was the biggest cost of both.
// FuzzAppendJournalParity holds every encoder to json.Marshal.

func (p *walSubmission) AppendJSON(e *wire.Appender) {
	e.Raw(`{"id":`).Str(p.ID).Raw(`,"body":`).RawValue(p.Body).Raw(`}`)
}

func (p *walGrid) AppendJSON(e *wire.Appender) {
	e.Raw(`{"name":`).Str(p.Name).Raw(`,"spec":`).RawValue(p.Spec).Raw(`}`)
}

func (p *walState) AppendJSON(e *wire.Appender) {
	e.Raw(`{"id":`).Str(p.ID).Raw(`,"tenant":`).Str(p.Tenant)
	if len(p.Body) > 0 {
		e.Raw(`,"body":`).RawValue(p.Body)
	}
	e.OmitInt(`,"rev":`, p.Rev).Raw(`,"acked_gen":`).Int(p.AckedGen).Raw(`,"reports":`).Int(p.Reports)
	e.Raw(`,"plan_trigger":`).Str(p.PlanTrigger)
	if p.State != nil {
		p.State.AppendJSON(e.Raw(`,"state":`))
	}
	if p.Patch != nil {
		p.Patch.AppendJSON(e.Raw(`,"patch":`))
	}
	wire.OmitArray(e, `,"deltas":`, p.Deltas, func(d *feedback.HistoryDelta) { d.AppendJSON(e) })
	wire.OmitArray(e, `,"events":`, p.Events, func(ev *wire.Event) { ev.AppendJSON(e) }).Raw(`}`)
}

func (p *walTerminal) AppendJSON(e *wire.Appender) {
	p.Status.AppendJSON(e.Raw(`{"id":`).Str(p.ID).Raw(`,"status":`))
	if p.Plan != nil {
		p.Plan.AppendJSON(e.Raw(`,"plan":`))
	}
	wire.OmitArray(e, `,"events":`, p.Events, func(ev *wire.Event) { ev.AppendJSON(e) }).Raw(`}`)
}

func (t *tenantHistory) AppendJSON(e *wire.Appender) {
	e.Raw(`{"tenant":`).Str(t.Tenant).Raw(`,"alpha":`).Float(t.Alpha).Raw(`,"cells":`)
	wire.Array(e, t.Cells, func(c *history.Cell) {
		e.Raw(`{"op":`).Str(c.Op).Raw(`,"resource":`).Int(int(c.Resource)).Raw(`,"count":`).Int(c.Count)
		e.Raw(`,"mean":`).Float(c.Mean).Raw(`,"ewma":`).Float(c.EWMA).Raw(`,"min":`).Float(c.Min)
		e.Raw(`,"max":`).Float(c.Max).Raw(`,"last":`).Float(c.Last).Raw(`}`)
	}).Raw(`}`)
}

func (d *shardSnapshot) AppendJSON(e *wire.Appender) {
	e.Raw(`{"v":`).Int(d.V).Raw(`,"seq":`).Uint(d.Seq)
	wire.OmitArray(e, `,"grids":`, d.Grids, func(g *walGrid) { g.AppendJSON(e) })
	wire.OmitArray(e, `,"pending":`, d.Pending, func(p *walSubmission) { p.AppendJSON(e) })
	wire.OmitArray(e, `,"live":`, d.Live, func(p *walState) { p.AppendJSON(e) })
	wire.OmitArray(e, `,"terminal":`, d.Terminal, func(t *walTerminal) { t.AppendJSON(e) })
	wire.OmitArray(e, `,"tenants":`, d.Tenants, func(t *tenantHistory) { t.AppendJSON(e) }).Raw(`}`)
}

// shardWAL is one shard's durability state. Its mutex orders appends
// against snapshot assembly and rotation, so no record can land in a
// segment the rotation is about to truncate without being covered by the
// snapshot. A snapshot's raw bodies are the workflows' own (running.body).
type shardWAL struct {
	store *durable.Shard

	mu sync.Mutex

	// onAppend, when set (tests only), sees each record's kind just before
	// it is written: the place to assert what is visible at that instant,
	// or to stop the store there as a crash would.
	onAppend func(kind string)
}

// append writes one record and reports whether it was written; callers
// hold w.mu. A failed append degrades durability, not availability: the
// daemon keeps serving and the error is counted and logged.
func (w *shardWAL) append(m *Metrics, kind string, data wire.Doc) bool {
	if w.onAppend != nil {
		w.onAppend(kind)
	}
	if _, err := w.store.Append(kind, data); err != nil {
		m.count(func(c *MetricsDoc) { c.WALErrors++ })
		log.Printf("aheftd: wal append (%s): %v", kind, err)
		return false
	}
	return true
}

// enqueue hands an accepted submission to the shard's fair queue and,
// once it is queued, logs its raw body, so a crash between
// accept and start replays it as pending and a refused one leaves no
// record. w.mu is held across both: every record the worker writes about
// the workflow waits on it, so the submission comes first in the log.
// Lock order: submitMu, w.mu, then the controller's own (Enqueue never
// blocks).
func (sh *shard) enqueue(item admission.Item, body json.RawMessage) error {
	w := sh.wal
	if w == nil {
		return sh.adm.Enqueue(item)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := sh.adm.Enqueue(item); err != nil {
		return err
	}
	w.append(sh.srv.metrics, wire.WALSubmission, &walSubmission{ID: item.ID, Body: body})
	return nil
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
	// Without the decisions' telemetry: the same inputs, the same bytes.
	for i, ev := range events {
		if ev.Decision != nil {
			d := *ev.Decision
			d.ElapsedMs, d.RankMs, d.PlaceMs = 0, 0, 0
			events[i].Decision = &d
		}
	}
	doc := walState{
		ID:          wf.id,
		Tenant:      wf.tenant,
		Rev:         wf.walRev,
		AckedGen:    wf.ackedGen,
		Reports:     reports,
		PlanTrigger: trigger,
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

// walLogState journals a live workflow's post-apply state. Shard
// goroutine only.
func (sh *shard) walLogState(wf *workflow, deltas []feedback.HistoryDelta) {
	w := sh.wal
	if w == nil {
		return
	}
	doc := sh.walStateDoc(wf, false)
	doc.Rev++
	doc.Deltas = deltas
	w.mu.Lock()
	ok := w.append(sh.srv.metrics, wire.WALState, &doc)
	w.mu.Unlock()
	wf.rebase(&doc, ok)
}

// walLogTerminal journals a workflow's terminal record. Called after
// finish(), so status() is final.
func (sh *shard) walLogTerminal(wf *workflow) {
	w := sh.wal
	if w == nil {
		return
	}
	doc := wf.terminalDoc()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.append(sh.srv.metrics, wire.WALTerminal, &doc)
}

// terminalDoc renders a terminal entry as its journal record.
func (wf *workflow) terminalDoc() walTerminal {
	wf.mu.Lock()
	defer wf.mu.Unlock()
	en := wf.view()
	return walTerminal{ID: wf.id, Status: en.st, Plan: en.plan, Events: en.wireEvents(wf.id, 0)}
}

// newTerminal is terminalDoc's inverse: the registry entry of a workflow
// that ended before this process started.
func newTerminal(t *walTerminal) *workflow {
	return &workflow{
		id:    t.ID,
		shard: t.Status.Shard,
		live:  t.Status.Mode == wire.ModeLive,
		rec:   sealRecord(t.ID, &t.Status, recordsOf(t.Events), t.Plan),
	}
}

// snapBufs holds the buffers snapshots are encoded into: a snapshot is
// as large as the shard's state, and growing a fresh buffer to that size
// for each would allocate it twice over.
var snapBufs sync.Pool

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
		wf := sh.live[id]
		doc.Live = append(doc.Live, sh.walStateDoc(wf, true))
		doc.Live[len(doc.Live)-1].Body = wf.body
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
	// after this point blocks on w.mu and lands in the fresh segment. Lock
	// order w.mu, then the controller's, as in enqueue.
	for _, it := range sh.adm.Queued() {
		doc.Pending = append(doc.Pending, walSubmission{ID: it.ID, Body: it.Value.(*workflow).body})
	}
	buf, _ := snapBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	e := wire.NewAppender((*buf)[:0])
	doc.AppendJSON(&e)
	data, err := e.Done()
	if err == nil {
		*buf = data
		err = w.store.Rotate(data)
	}
	snapBufs.Put(buf)
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

// Crash simulates a SIGKILL for recovery tests: every WAL store and
// record stream is frozen exactly as the disk would be at the kill
// instant (no flush, no final snapshot or trailer), then the workers are
// torn down. The Server is
// unusable afterwards; reopen the data directory with Open.
func (s *Server) Crash() {
	for _, sh := range s.shards {
		if sh.wal != nil {
			sh.wal.store.Disable()
		}
	}
	if s.recorder != nil {
		for _, l := range s.recorder.logs {
			l.Disable()
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

	// The workflow its submission rebuilds into, and the grid it attaches
	// to (live and pending workflows only).
	wf       *workflow
	gref     *sharedGrid
	buildErr error
}

// walPos orders records across shard directories as one pass over the
// directories in index order would meet them: the directory, then a count
// that only grows while its fold walks it.
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

// The journal's documents decode in one pass with json.Unmarshal's
// semantics (FuzzDecodeWALStateParity): each scan reads the document at
// the scanner, scanDoc a whole payload. Raw bodies are copied out of the
// record (a view of the log's read buffer): they outlive the replay.
// Terminal records and tenant histories, a handful per snapshot, are
// json.Unmarshal's where they stand.

func scanDoc(data []byte, d interface{ scan(*jsonscan.Scanner) }) error {
	sc := jsonscan.New(data)
	d.scan(sc)
	return sc.End()
}

func (p *walState) scan(sc *jsonscan.Scanner) {
	sc.Object("id", &p.ID, "tenant", &p.Tenant,
		"body", func() { p.Body = append(p.Body[:0], sc.Raw()...) },
		"rev", &p.Rev, "acked_gen", &p.AckedGen, "reports", &p.Reports, "plan_trigger", &p.PlanTrigger,
		"state", func() {
			jsonscan.Ptr(sc, &p.State, func(st *feedback.TrackerState) { feedback.DecodeState(sc, st) })
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
}

func (p *walSubmission) scan(sc *jsonscan.Scanner) {
	sc.Object("id", &p.ID, "body", func() { p.Body = append(p.Body[:0], sc.Raw()...) })
}

func (p *walReject) scan(sc *jsonscan.Scanner) { sc.Object("id", &p.ID) }

func (p *walGrid) scan(sc *jsonscan.Scanner) {
	sc.Object("name", &p.Name, "spec", func() { p.Spec = append(p.Spec[:0], sc.Raw()...) })
}

func (p *walTerminal) scan(sc *jsonscan.Scanner) { sc.Fail(json.Unmarshal(sc.Raw(), p)) }

func (d *shardSnapshot) scan(sc *jsonscan.Scanner) {
	sc.Object("v", &d.V, "seq", &d.Seq,
		"grids", func() { d.Grids = jsonscan.Array(sc, d.Grids, func(g *walGrid) { g.scan(sc) }) },
		"pending", func() { d.Pending = jsonscan.Array(sc, d.Pending, func(p *walSubmission) { p.scan(sc) }) },
		"live", func() { d.Live = jsonscan.Array(sc, d.Live, func(p *walState) { p.scan(sc) }) },
		"terminal", func() { sc.Fail(json.Unmarshal(sc.Raw(), &d.Terminal)) },
		"tenants", func() { sc.Fail(json.Unmarshal(sc.Raw(), &d.Tenants)) })
}

// RecoveryStats describes the last startup recovery: what came back,
// how much journal was read to get there, and where the time went
// (load: reading and framing the logs; fold: decoding and folding
// records; restore: rebuilding grids, trackers and queues; snapshot: the
// fresh snapshots written where recoverState needs them, else 0). The
// four add up to Ms. Directories are loaded
// and folded side by side, so LoadMs and FoldMs are not spans of their
// own: they are that section's wall time, split between the two as the
// fold workers' summed busy time in each splits.
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
// cmd/chaos's verdict.
func (r RecoveryStats) String() string {
	return fmt.Sprintf("recovered %d live workflows in %.1fms (load %.1f, fold %.1f, restore %.1f, snapshot %.1f; %d records, %d bytes replayed)",
		r.Workflows, r.Ms, r.LoadMs, r.FoldMs, r.RestoreMs, r.SnapshotMs, r.WALRecords, r.WALBytes)
}

// Recovery returns the last startup recovery's statistics (zero for a
// daemon without a data directory).
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// recoveryFold accumulates what one shard directory holds. Each fold runs
// on one goroutine and touches nothing another's does (its own directory
// and tenant histories), so the folds run side by side and recoverState
// merges what they gathered. It is the durable.Decoder the directory is
// read through.
type recoveryFold struct {
	s      *Server
	dir    int // the shard whose directory this is
	n      int // records given a walPos so far
	rec    *durable.Recovered
	wfs    map[string]*recoveredWorkflow
	grids  map[string]json.RawMessage     // by name: a grid is registered once
	repos  map[string]*history.Repository // by tenant
	maxSeq uint64

	next       interface{ scan(*jsonscan.Scanner) } // what Payload read last
	began      time.Time                            // when the record being folded was met
	resnap     bool                                 // its log spans an earlier start or held a skipped record
	load, fold time.Duration                        // busy time reading and framing / decoding and folding
	records    int
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
		f.maxSeq = max(f.maxSeq, parseWorkflowSeq(id))
	}
	return rw
}

// ended folds a terminal record; the first one fixes where the workflow
// ended.
func (f *recoveryFold) ended(t *walTerminal) {
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
	f.resnap = true
	log.Printf("aheftd: recovery: shard %d lsn %d: skipping %s record: %v", f.dir, r.LSN, r.Kind, err)
}

// named skips a record whose payload did not decode (err) or names no one.
func (f *recoveryFold) named(r *wire.WALRecord, err error, name string) bool {
	if err == nil && name == "" {
		err = fmt.Errorf("payload names no subject")
	}
	if err != nil {
		f.skip(r, err)
	}
	return err == nil
}

// read reads the fold's shard directory, folding its snapshot and log
// tail in as the store reads them: parked payloads would be the log a
// second time over. It writes nothing: recoverState opens the stores once
// every directory is read.
func (f *recoveryFold) read() error {
	start := time.Now()
	rec, err := durable.Load(f.s.shardDir(f.dir), f)
	if err != nil {
		return fmt.Errorf("server: shard %d wal: %w", f.dir, err)
	}
	f.rec = rec
	f.load = time.Since(start) - f.fold
	f.resnap = f.resnap || rec.Segments > 1
	return nil
}

// Snapshot folds in a directory's newest snapshot (durable.Decoder).
func (f *recoveryFold) Snapshot(data []byte) error {
	began := time.Now()
	defer func() { f.fold += time.Since(began) }()
	var snap shardSnapshot
	if err := scanDoc(data, &snap); err != nil {
		return err
	}
	if snap.Seq > f.maxSeq {
		f.maxSeq = snap.Seq
	}
	for _, g := range snap.Grids {
		f.grids[g.Name] = g.Spec
	}
	for _, t := range snap.Tenants {
		f.repoFor(t.Tenant, t.Alpha).Import(t.Cells)
	}
	for _, p := range snap.Pending {
		f.wfFor(p.ID).body = p.Body
	}
	for i := range snap.Live {
		f.wfFor(snap.Live[i].ID).fold(&snap.Live[i])
	}
	for i := range snap.Terminal {
		f.ended(&snap.Terminal[i])
	}
	return nil
}

// Payload decodes a record's payload where the store's walk of its
// envelope meets it (durable.Decoder).
func (f *recoveryFold) Payload(kind string, sc *jsonscan.Scanner) {
	f.began = time.Now()
	switch kind {
	case wire.WALSubmission:
		f.next = new(walSubmission)
	case wire.WALReject:
		f.next = new(walReject)
	case wire.WALGrid:
		f.next = new(walGrid)
	case wire.WALState:
		f.next = new(walState)
	case wire.WALTerminal:
		f.next = new(walTerminal)
	default:
		f.next = nil
		sc.Skip()
		return
	}
	f.next.scan(sc)
}

// Record folds one log record in, decoding r.Data if Payload did not
// (durable.Decoder).
func (f *recoveryFold) Record(r *wire.WALRecord, decoded bool) {
	var err error
	if !decoded {
		sc := jsonscan.New(r.Data)
		f.Payload(r.Kind, sc)
		err = sc.End()
	}
	defer func() { f.fold += time.Since(f.began) }()
	f.records++
	switch p := f.next.(type) {
	case *walSubmission:
		if f.named(r, err, p.ID) {
			rw := f.wfFor(p.ID)
			rw.body = p.Body
			rw.rejected = false
		}
	case *walReject:
		if f.named(r, err, p.ID) {
			f.wfFor(p.ID).rejected = true
		}
	case *walGrid:
		if f.named(r, err, p.Name) {
			f.grids[p.Name] = p.Spec
		}
	case *walState:
		if !f.named(r, err, p.ID) {
			// A link of the chain is gone. The ID leads the payload, so it
			// usually survives a field that does not decode; when it does
			// not, the rev gap at the workflow's next record breaks the
			// chain instead.
			if p.ID != "" {
				f.wfFor(p.ID).broken = fmt.Errorf("state record at lsn %d does not decode", r.LSN)
			}
			return
		}
		f.wfFor(p.ID).fold(p)
		// History deltas replay in LSN order regardless of whether
		// the workflow itself survives to restoration.
		repo := f.repoFor(p.Tenant, 0)
		for _, d := range p.Deltas {
			_ = repo.Record(d.Op, grid.ID(d.Resource), d.Duration)
		}
	case *walTerminal:
		if !f.named(r, err, p.ID) {
			// Without its terminal record the workflow would come
			// back live from its last state record: fail it instead.
			if p.ID != "" {
				f.wfFor(p.ID).broken = fmt.Errorf("terminal record at lsn %d does not decode", r.LSN)
			}
			return
		}
		f.ended(p)
	default:
		// An older log's admission records hold fair-queue credentials
		// the rebuilt body carries too.
		if r.Kind != wire.WALAdmission {
			f.skip(r, fmt.Errorf("unknown record kind"))
		}
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

// recoverState replays every shard directory under dataDir into the (not
// yet started) server, each onto its own shard: snapshots and log tails
// folded, and the registry, shards, grids, tenant histories and live
// trackers rebuilt. It reads every directory and rebuilds every
// submission before it writes a byte, so a directory it refuses is left
// as it was (Open has checked its layout). Then it writes the layout
// record if the directory has none, opens the stores (repairing torn
// tails) and journals what recovery decided. Must run before the shard
// goroutines start.
//
// The directories are folded side by side, one recoveryFold each, and
// merged in index order: what comes back is what one pass over the
// directories would bring back, however the folds interleave.
func (s *Server) recoverState() error {
	start := time.Now()
	policy, err := durable.ParseSyncPolicy(s.cfg.WALSync)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	folds := make([]*recoveryFold, len(s.shards))
	errs := make([]error, len(s.shards))
	foldStart := time.Now()
	sideBySide(len(folds), func(i int) {
		folds[i] = &recoveryFold{s: s, dir: i, wfs: map[string]*recoveredWorkflow{},
			grids: map[string]json.RawMessage{}, repos: map[string]*history.Repository{}}
		errs[i] = folds[i].read()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Merge. A workflow lives in one directory: one met in two is what an
	// older daemon's change of shard count, cut short, left behind.
	var st RecoveryStats
	var busyLoad, busyFold time.Duration
	wfs := map[string]*recoveredWorkflow{}
	grids := map[string]json.RawMessage{}
	var maxSeq uint64
	for _, f := range folds {
		for id, rw := range f.wfs {
			if prev := wfs[id]; prev != nil {
				return fmt.Errorf("server: workflow %s is journalled in both %s and %s; %s", id, s.shardDir(prev.seen.dir), s.shardDir(f.dir), unfinishedReshard)
			}
			wfs[id] = rw
		}
		maps.Copy(grids, f.grids)
		maxSeq = max(maxSeq, f.maxSeq)
		busyLoad += f.load
		busyFold += f.fold
		st.WALBytes += f.rec.Bytes
		st.WALRecords += f.records
	}
	// Load and fold overlap across the folds: the section's wall time is
	// reported, split as the folds' summed busy time in each splits.
	restoreStart := time.Now()
	wall := restoreStart.Sub(foldStart).Seconds() * 1e3
	st.LoadMs = wall * float64(busyLoad) / float64(busyLoad+busyFold)
	st.FoldMs = wall - st.LoadMs // fma:ok telemetry, no decision reads it

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

	// Shared grids: re-register. Ledgers start empty and reassemble from
	// their restored residents.
	gridNames := make([]string, 0, len(grids))
	for name := range grids {
		gridNames = append(gridNames, name)
	}
	sort.Strings(gridNames)
	for _, name := range gridNames {
		spec, err := wire.DecodeGridSpec(grids[name], s.cfg.Limits)
		if err != nil {
			log.Printf("aheftd: recovery: grid %q spec: %v", name, err)
			continue
		}
		s.grids[name] = newSharedGrid(name, grids[name], spec, len(s.shards), s.cfg.GridShareCap)
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

	// Rebuild the live and pending submissions side by side. Each runs on
	// the shard whose directory journalled it, unless an older daemon's
	// change of shard count was cut short.
	sort.Slice(pending, func(i, j int) bool { return pending[i].seen.before(pending[j].seen) })
	rebuild := append(live[:len(live):len(live)], pending...)
	sideBySide(len(rebuild), func(i int) {
		if rw := rebuild[i]; rw.body != nil {
			rw.wf, rw.gref, rw.buildErr = s.buildWorkflow(rw.id, rw.body)
		}
	})
	for _, rw := range rebuild {
		if rw.wf != nil && rw.wf.shard != rw.seen.dir {
			return fmt.Errorf("server: workflow %s is journalled in %s but runs on shard %d; %s", rw.id, s.shardDir(rw.seen.dir), rw.wf.shard, unfinishedReshard)
		}
	}

	// Nothing is refused any more: record the layout, open the stores.
	if _, err := os.Stat(filepath.Join(s.cfg.DataDir, layoutFile)); os.IsNotExist(err) {
		data, _ := json.Marshal(dataLayout{V: 1, Shards: len(s.shards)})
		if err = os.MkdirAll(s.cfg.DataDir, 0o755); err == nil {
			err = durable.WriteFile(s.cfg.DataDir, layoutFile, data, policy)
		}
		if err != nil {
			return fmt.Errorf("server: layout record: %w", err)
		}
	}
	for i, f := range folds {
		store, err := durable.Resume(s.shardDir(i), f.rec, policy, s.cfg.WALSyncInterval)
		if err != nil {
			return fmt.Errorf("server: shard %d wal: %w", i, err)
		}
		s.shards[i].wal = &shardWAL{store: store}
	}

	// Terminal records: queryable, retained under the cap in the order
	// the workflows finished; a workflow's latest record is the one
	// registered, on the shard whose directory holds it.
	sort.Slice(ended, func(i, j int) bool { return ended[i].endedAt.before(ended[j].endedAt) })
	for _, rw := range ended {
		wf := newTerminal(rw.terminal)
		wf.shard = rw.endedAt.dir
		s.wfs[rw.id] = wf
		s.retire(rw.id)
	}
	for _, rw := range lost {
		s.failRecovered(rw, rw.broken)
	}

	// Install the rebuilt submissions one by one: live residents (restore
	// trackers, re-park, re-attach), then pending submissions, re-enqueued
	// in arrival order.
	for _, rw := range live {
		if err := s.restoreLive(rw); err != nil {
			s.failRecovered(rw, err)
			continue
		}
		st.Workflows++
	}
	for _, rw := range pending {
		if err := s.requeueRecovered(rw); err != nil {
			s.failRecovered(rw, err)
		}
	}

	s.mu.Lock()
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
	s.mu.Unlock()

	// A shard whose log already spans an earlier start, or held a record
	// that was skipped, takes a snapshot, so the next start replays at
	// most two starts' appends and counts a skip once. Otherwise the logs
	// say where everything is, and nothing is written.
	snapStart := time.Now()
	st.RestoreMs = snapStart.Sub(restoreStart).Seconds() * 1e3
	if slices.ContainsFunc(folds, func(f *recoveryFold) bool { return f.resnap }) {
		sideBySide(len(folds), func(i int) {
			if folds[i].resnap {
				s.shards[i].snapshot()
			}
		})
		st.SnapshotMs = time.Since(snapStart).Seconds() * 1e3
	}
	st.Ms = time.Since(start).Seconds() * 1e3
	s.recovery = st
	if recoveredHook != nil {
		recoveredHook(s)
	}
	return nil
}

// unfinishedReshard is what a refused start says of a workflow that sits
// where no fixed shard count puts it.
const unfinishedReshard = "a change of shard count by an older daemon did not finish here: finish it with that daemon, or drain and start on an empty directory"

// layoutFile is the data directory's layout record, {"v":1,"shards":N}:
// the shard count the directory's first start fixed. Every later start
// runs under that count or refuses (-shards shapes a fresh directory
// only). A reshard is an offline step: drain the daemon, then start one
// with the new count on an empty directory.
const layoutFile = "layout.json"

type dataLayout struct {
	V      int `json:"v"`
	Shards int `json:"shards"`
}

// shardDir is shard i's journal directory.
func (s *Server) shardDir(i int) string {
	return filepath.Join(s.cfg.DataDir, fmt.Sprintf("shard-%d", i))
}

// CheckLayout tells, writing nothing, whether Open can start cfg on its
// data directory: it must be fresh or laid out for cfg's shard count. A
// directory written before the layout record existed takes its count
// from its shard-<i> set, which must then be exactly shard-0 to
// shard-<k-1>. Open checks first; aheftd checks before it listens.
func CheckLayout(cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil
	}
	entries, err := os.ReadDir(cfg.DataDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	var dirs []string
	top := -1
	for _, e := range entries {
		var i int
		if _, err := fmt.Sscanf(e.Name(), "shard-%d", &i); err == nil && i >= 0 && e.IsDir() && e.Name() == fmt.Sprintf("shard-%d", i) {
			dirs = append(dirs, e.Name())
			top = max(top, i)
		}
	}
	layout := dataLayout{V: 1, Shards: len(dirs)}
	data, err := os.ReadFile(filepath.Join(cfg.DataDir, layoutFile))
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return fmt.Errorf("server: data dir: %w", err)
	case json.Unmarshal(data, &layout) != nil || layout.V != 1 || layout.Shards < 1:
		return fmt.Errorf("server: data dir %s: unreadable layout record %q", cfg.DataDir, data)
	}
	if top >= layout.Shards {
		return fmt.Errorf("server: data dir %s: shard directories %v do not fit a layout of %d shards (shard-0 to shard-%d)", cfg.DataDir, dirs, layout.Shards, layout.Shards-1)
	}
	if layout.Shards > 0 && layout.Shards != cfg.Shards {
		return fmt.Errorf("server: data dir %s holds %d shards and -shards is %d: a data directory's shard count is fixed at its first start; to reshard, drain this daemon, then start one with -shards %d on an empty directory", cfg.DataDir, layout.Shards, cfg.Shards, cfg.Shards)
	}
	return nil
}

// recoveredHook, when set (tests only), sees what recoverState brought
// back, before any worker starts.
var recoveredHook func(*Server)

// restoreLive restores one live workflow, its submission rebuilt, from
// its journalled state and parks it on its shard. Runs before workers
// start, so touching the tracker here is safe.
func (s *Server) restoreLive(rw *recoveredWorkflow) error {
	if rw.body == nil {
		return fmt.Errorf("live state without submission body")
	}
	wf, gref := rw.wf, rw.gref
	if rw.buildErr != nil {
		return fmt.Errorf("rebuild submission: %w", rw.buildErr)
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
	// The chain continues where the journal left it: the next record is a
	// patch onto the folded state, one rev on (Restore copied what it
	// kept of the state, so nothing aliases the base).
	wf.walBase, wf.walEvents, wf.walRev = rw.state, len(rw.events), rw.last.Rev
	wf.ackedGen = rw.last.AckedGen
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
	s.metrics.count(func(c *MetricsDoc) { c.LiveResident++ })
	s.metrics.inflightReserve()
	return nil
}

// requeueRecovered re-enqueues an accepted-but-unstarted submission
// into the fair queue under the admission credentials its rebuilt body
// carries, past the backlog bounds that admitted it. Recovery runs
// before the shard workers start, so the weighted fair order re-emerges
// as soon as the worker begins draining — a tenant's pre-crash flood
// cannot jump the queue.
func (s *Server) requeueRecovered(rw *recoveredWorkflow) error {
	wf := rw.wf
	if rw.buildErr != nil {
		return fmt.Errorf("rebuild submission: %w", rw.buildErr)
	}
	sh := s.shards[wf.shard]
	// The workers have not started: nothing can dequeue the item before
	// it is registered.
	if err := sh.adm.Readmit(admission.Item{ID: wf.id, Tenant: wf.tenant, Class: wf.class, Weight: wf.weight, Value: wf}); err != nil {
		return fmt.Errorf("shard %d admission refused during recovery: %w", wf.shard, err)
	}
	s.metrics.inflightReserve()
	s.mu.Lock()
	s.wfs[wf.id] = wf
	s.mu.Unlock()
	return nil
}

// failRecovered registers a synthetic failed terminal for a journalled
// workflow that could not be brought back (its client was told 202 and
// deserves an answer, not a 404), and journals it on the shard whose
// directory holds the workflow, so every later start finds it failed.
func (s *Server) failRecovered(rw *recoveredWorkflow, cause error) {
	log.Printf("aheftd: recovery: workflow %s: %v", rw.id, cause)
	msg := fmt.Sprintf("lost in recovery: %v", cause)
	shard := rw.seen.dir
	wf := newTerminal(&walTerminal{
		ID:     rw.id,
		Status: wire.Status{ID: rw.id, Shard: shard, State: StateFailed, Error: msg, Events: 2},
		Events: []wire.Event{{Kind: "submitted"}, {Kind: "failed", Error: msg}},
	})
	s.mu.Lock()
	s.wfs[rw.id] = wf
	s.mu.Unlock()
	s.retire(rw.id)
	s.metrics.count(func(c *MetricsDoc) { c.Failed++ })
	s.shards[shard].walLogTerminal(wf)
}

// parseWorkflowSeq extracts N from a daemon-assigned "wf-%08d" ID as
// fmt.Sscanf(id, "wf-%d", &n) would: white space but a line break may
// precede the digits and anything may follow them; an ID without digits
// there, or whose N overflows, is 0.
func parseWorkflowSeq(id string) uint64 {
	rest, ok := strings.CutPrefix(id, "wf-")
	if !ok {
		return 0
	}
	for rest != "" {
		r, size := utf8.DecodeRuneInString(rest)
		if r == '\n' || r == '\r' && strings.HasPrefix(rest[size:], "\n") || !unicode.IsSpace(r) {
			break
		}
		rest = rest[size:]
	}
	end := 0
	for end < len(rest) && '0' <= rest[end] && rest[end] <= '9' {
		end++
	}
	n, err := strconv.ParseUint(rest[:end], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// --- readiness gate + versioned health --------------------------------

// Gate is the recovering/ready switch in front of the daemon's handler:
// every request is answered 503 {"status":"recovering"} until Ready
// installs the real handler. cmd/aheftd serves the gate immediately and
// flips it once Open's replay completes, so a probe (or cmd/chaos's
// readiness wait) distinguishes "recovering" from "ready" by status code.
type Gate struct {
	h    atomic.Pointer[http.Handler]
	body []byte // the 503 document: the same for every request
}

// NewGate returns a gate in the recovering state.
func NewGate() *Gate {
	body, _ := json.MarshalIndent(map[string]any{"status": "recovering", "version": buildinfo.String()}, "", "  ")
	return &Gate{body: append(body, '\n')} // writeJSON's bytes
}

// Ready installs the recovered daemon's handler.
func (g *Gate) Ready(h http.Handler) { g.h.Store(&h) }

func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := g.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write(g.body)
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
