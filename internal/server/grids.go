package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"aheft/internal/grid"
	"aheft/internal/occupancy"
	"aheft/internal/planner"
	"aheft/internal/wire"
)

// This file is the shared-grid half of the daemon: named, shard-resident
// resource grids that live workflows attach to with pool: "shared:<name>"
// instead of shipping a private pool. Every workflow of a grid is routed
// to the grid's shard, so all of its planning — and every read and write
// of the grid's reservation ledger on the planning path — happens on one
// worker goroutine, preserving the kernel discipline while making
// contention endogenous: concurrent workflows see each other's
// reservations as busy intervals and plan around them.
//
//	PUT /v1/grids/{name}  register a grid (wire.GridSpec) → 201 GridStatus
//	GET /v1/grids/{name}  aggregate occupancy             → 200 GridStatus
//	GET /v1/grids         all grids                       → 200 []GridStatus

// sharedGrid is one named grid and its aggregate reservation state.
type sharedGrid struct {
	name   string
	shard  int
	pool   *grid.Pool
	ledger *occupancy.Ledger
	// raw is the registration's wire.GridSpec body, kept verbatim so the
	// durability layer journals and replays exactly what was submitted.
	raw json.RawMessage

	// attached tracks the live workflows currently resident on the grid.
	// Mutations happen on the owning shard's goroutine; the mutex exists
	// for the status/metrics readers.
	mu       sync.Mutex
	attached map[string]*workflow
}

// newSharedGrid builds a grid record for a decoded spec; the ledger
// starts empty (recovery refills it through its restored residents).
// shareCap is the per-tenant reservation share bound (Config
// GridShareCap); zero disables it.
func newSharedGrid(name string, raw json.RawMessage, spec *wire.GridSpec, shards int, shareCap float64) *sharedGrid {
	ledger := occupancy.NewLedger(spec.Pool.Size())
	ledger.SetShareCap(shareCap)
	return &sharedGrid{
		name:     name,
		shard:    shardFor("grid:"+name, shards),
		pool:     spec.Pool,
		ledger:   ledger,
		raw:      append(json.RawMessage(nil), raw...),
		attached: make(map[string]*workflow),
	}
}

func (g *sharedGrid) attach(wf *workflow) {
	g.mu.Lock()
	g.attached[wf.id] = wf
	g.mu.Unlock()
}

func (g *sharedGrid) detach(id string) {
	g.mu.Lock()
	delete(g.attached, id)
	g.mu.Unlock()
}

// residents snapshots the attached workflows except the named one, in
// workflow-ID (= submission) order so survivor notification is
// deterministic.
func (g *sharedGrid) residents(except string) []*workflow {
	g.mu.Lock()
	out := make([]*workflow, 0, len(g.attached))
	for id, wf := range g.attached {
		if id != except {
			out = append(out, wf)
		}
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// status assembles the wire.GridStatus document.
func (g *sharedGrid) status() wire.GridStatus {
	g.mu.Lock()
	attached := len(g.attached)
	g.mu.Unlock()
	owners := g.ledger.Owners()
	st := wire.GridStatus{
		Name:      g.name,
		Shard:     g.shard,
		Resources: g.pool.Size(),
		Attached:  attached,
	}
	names := make([]string, 0, len(owners))
	for id := range owners {
		names = append(names, id)
	}
	sort.Strings(names)
	for _, id := range names {
		st.Reservations += owners[id]
		st.Owners = append(st.Owners, wire.GridOwner{Workflow: id, Reservations: owners[id]})
	}
	chNames, chCounts := g.ledger.Channels()
	for i, ch := range chNames {
		st.TransferReservations += chCounts[i]
		st.Links = append(st.Links, wire.LinkStatus{Channel: ch, Reservations: chCounts[i]})
	}
	return st
}

// gridLookup resolves a registered grid by name.
func (s *Server) gridLookup(name string) (*sharedGrid, bool) {
	s.gridMu.RLock()
	g, ok := s.grids[name]
	s.gridMu.RUnlock()
	return g, ok
}

// gridTotals aggregates the grid gauges for /metrics.
func (s *Server) gridTotals() (grids, reservations, transfers int) {
	s.gridMu.RLock()
	defer s.gridMu.RUnlock()
	for _, g := range s.grids {
		reservations += g.ledger.Total()
		transfers += g.ledger.TransferTotal()
	}
	return len(s.grids), reservations, transfers
}

func (s *Server) handleGridPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !wire.ValidGridName(name) {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("invalid grid name %q", name)})
		return
	}
	data, err := s.readBody(w, r)
	if err != nil {
		return
	}
	spec, err := wire.DecodeGridSpec(data, s.cfg.Limits)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	g := newSharedGrid(name, data, spec, len(s.shards), s.cfg.GridShareCap)
	s.gridMu.Lock()
	switch {
	case s.grids[name] != nil:
		s.gridMu.Unlock()
		writeJSON(w, http.StatusConflict, errorDoc{Error: fmt.Sprintf("grid %q already exists", name)})
		return
	case s.cfg.MaxSharedGrids > 0 && len(s.grids) >= s.cfg.MaxSharedGrids:
		s.gridMu.Unlock()
		writeJSON(w, http.StatusTooManyRequests, errorDoc{Error: fmt.Sprintf("grid limit %d reached", s.cfg.MaxSharedGrids)})
		return
	}
	s.grids[name] = g
	s.gridMu.Unlock()
	s.walLogGrid(g)
	// Recorded at registration time on the owning shard's stream: any
	// submission referencing the grid is only accepted after this 201, so
	// the record precedes every dependent submission record.
	if s.recorder != nil {
		s.recorder.grid(g.shard, name, g.raw)
	}
	writeJSON(w, http.StatusCreated, g.status())
}

func (s *Server) handleGridGet(w http.ResponseWriter, r *http.Request) {
	g, ok := s.gridLookup(r.PathValue("name"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown grid"})
		return
	}
	writeJSON(w, http.StatusOK, g.status())
}

func (s *Server) handleGridList(w http.ResponseWriter, r *http.Request) {
	s.gridMu.RLock()
	names := make([]string, 0, len(s.grids))
	for name := range s.grids {
		names = append(names, name)
	}
	s.gridMu.RUnlock()
	sort.Strings(names)
	out := make([]wire.GridStatus, 0, len(names))
	for _, name := range names {
		if g, ok := s.gridLookup(name); ok {
			out = append(out, g.status())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// notifyGrid runs the cross-workflow half of the feedback loop: after one
// workflow's reservations released (job finishes, terminal drain), every
// surviving live workflow on the grid reevaluates its plan against the
// freed capacity — the contention trigger. Survivor adoptions bump their
// plan documents; their enactors pick the new plan up with the next
// report ack (the generation piggyback in ackPlan). Adoptions are
// deliberately not re-notified: a survivor taking freed capacity does
// not free capacity itself, so the round terminates.
//
// link is the releasing workflow's ingest span (0 when tracing is off):
// every survivor's evaluate span carries it as its causal cross-workflow
// edge — "this replan happened because that batch freed capacity".
func (sh *shard) notifyGrid(g *sharedGrid, except string, link uint64) {
	for _, wf := range g.residents(except) {
		if !sh.enacting(wf) {
			continue
		}
		// An adoption changed the survivor's plan and reservations; a
		// crash before its next report must restore the adopted state.
		if sh.publish(wf, wf.tracker.Reevaluate(planner.TriggerContention), 0, link, except) {
			sh.walLogState(wf, nil)
		}
	}
}
