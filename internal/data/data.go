// Package data models workflow data files and the capacity-limited
// infrastructure that moves them: per-resource uplink/downlink bandwidth,
// named shared links, and attached storage. It is the catalog half of the
// data-aware scheduling path — the kernel consumes a Model to derive edge
// communication cost from file size ÷ effective bandwidth, to serialize
// concurrent transfers over the same channel, and to zero the cost of
// inputs already materialized on a resource (file reuse).
//
// The paper's Eq. 1–3 model treats communication as a bare edge weight
// over infinite link capacity; the workloads it evaluates (BLAST
// databases, WIEN2K case files) are dominated by staging named files over
// real links. This package is the bridge: edges optionally name a file
// (dag.Edge.File), submissions declare the file catalog (Set), and the
// pool declares the capacities (grid.Resource.Up/Down/Link/Store,
// grid.Pool links). With no catalog bound, nothing here runs and every
// schedule is bit-identical to the classic model.
package data

import (
	"fmt"
	"math"
	"sort"

	"aheft/internal/dag"
	"aheft/internal/grid"
)

// MaxIDLen bounds file-ID length, mirroring the wire layer's hostile-input
// discipline.
const MaxIDLen = 200

// File is one named data product: a unique ID, its size in data units
// (the same units as grid bandwidths' numerator), and the resources that
// already hold a replica before the workflow starts (a pre-staged BLAST
// database, say). An edge naming this file is satisfied on a host in
// Hosts as soon as its producer finishes — no transfer.
type File struct {
	ID    string    `json:"id"`
	Size  float64   `json:"size"`
	Hosts []grid.ID `json:"hosts,omitempty"`
}

// Set is the file catalog of one submission. DefaultBW is the baseline
// point-to-point bandwidth applied when neither endpoint declares a
// tighter constraint; zero means "unconstrained" (transfers over fully
// unmodelled paths take zero time — consistent with the grid layer's
// "zero means unmodelled" convention).
type Set struct {
	DefaultBW float64 `json:"bw,omitempty"`
	Files     []File  `json:"files"`
}

// Validate checks the catalog against its graph and pool size: unique,
// non-empty, bounded file IDs; positive finite sizes; host references in
// [0, poolSize); at most maxFiles entries (0 disables the bound); and —
// when g is non-nil — every edge file reference resolving to a declared
// file. poolSize 0 skips the host range check (no pool bound yet).
func (s *Set) Validate(g *dag.Graph, poolSize, maxFiles int) error {
	if maxFiles > 0 && len(s.Files) > maxFiles {
		return fmt.Errorf("data: %d files exceed limit %d", len(s.Files), maxFiles)
	}
	if s.DefaultBW < 0 || math.IsNaN(s.DefaultBW) || math.IsInf(s.DefaultBW, 0) {
		return fmt.Errorf("data: invalid default bandwidth %g", s.DefaultBW)
	}
	seen := make(map[string]bool, len(s.Files))
	for _, f := range s.Files {
		if f.ID == "" {
			return fmt.Errorf("data: file with empty ID")
		}
		if len(f.ID) > MaxIDLen {
			return fmt.Errorf("data: file ID longer than %d bytes", MaxIDLen)
		}
		if seen[f.ID] {
			return fmt.Errorf("data: duplicate file %q", f.ID)
		}
		seen[f.ID] = true
		if !(f.Size > 0) || math.IsInf(f.Size, 0) {
			return fmt.Errorf("data: file %q has invalid size %g", f.ID, f.Size)
		}
		hosts := make(map[grid.ID]bool, len(f.Hosts))
		for _, h := range f.Hosts {
			if h < 0 || (poolSize > 0 && int(h) >= poolSize) {
				return fmt.Errorf("data: file %q hosted on unknown resource %d", f.ID, h)
			}
			if hosts[h] {
				return fmt.Errorf("data: file %q lists host %d twice", f.ID, h)
			}
			hosts[h] = true
		}
	}
	if g != nil {
		for _, e := range g.Edges() {
			if e.File != "" && !seen[e.File] {
				return fmt.Errorf("data: edge (%s,%s) references undeclared file %q",
					g.Job(e.From).Name, g.Job(e.To).Name, e.File)
			}
		}
	}
	return nil
}

// Model binds a file catalog to a concrete pool: it precomputes the dense
// channel index (one channel per declared uplink, downlink and shared
// link), the per-pair effective bandwidth, and the pre-staged replica map,
// so the kernel's placement inner loop reads flat slices.
//
// Channel names are stable and self-describing — "up:<resID>",
// "down:<resID>", "link:<name>" — and double as the keys the occupancy
// ledger and GridStatus report transfer reservations under.
type Model struct {
	set  *Set
	pool *grid.Pool
	idx  map[string]int // file ID → index

	nRes                 int
	up, down, store      []float64 // per resource; 0 = unconstrained
	upCh, downCh, linkCh []int     // per resource → channel index or -1

	chName []string
	chBW   []float64

	staged []bool // [file*nRes+res]: pre-staged replica present
	refBW  float64
}

// NewModel validates set against pool and builds the bound model.
func NewModel(set *Set, pool *grid.Pool, g *dag.Graph, maxFiles int) (*Model, error) {
	if set == nil || pool == nil {
		return nil, fmt.Errorf("data: NewModel requires a catalog and a pool")
	}
	if err := set.Validate(g, pool.Size(), maxFiles); err != nil {
		return nil, err
	}
	n := pool.Size()
	m := &Model{
		set: set, pool: pool, idx: make(map[string]int, len(set.Files)),
		nRes: n,
		up:   make([]float64, n), down: make([]float64, n), store: make([]float64, n),
		upCh: make([]int, n), downCh: make([]int, n), linkCh: make([]int, n),
		staged: make([]bool, len(set.Files)*n),
	}
	for i, f := range set.Files {
		m.idx[f.ID] = i
		for _, h := range f.Hosts {
			m.staged[i*n+int(h)] = true
		}
	}
	linkIdx := make(map[string]int)
	links := pool.Links()
	names := make([]string, 0, len(links))
	for name := range links {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		linkIdx[name] = len(m.chName)
		m.chName = append(m.chName, "link:"+name)
		m.chBW = append(m.chBW, links[name])
	}
	for _, a := range pool.Arrivals() {
		r := a.Resource
		i := int(r.ID)
		m.up[i], m.down[i], m.store[i] = r.Up, r.Down, r.Store
		m.upCh[i], m.downCh[i], m.linkCh[i] = -1, -1, -1
		if r.Up > 0 {
			m.upCh[i] = len(m.chName)
			m.chName = append(m.chName, fmt.Sprintf("up:%d", i))
			m.chBW = append(m.chBW, r.Up)
		}
		if r.Down > 0 {
			m.downCh[i] = len(m.chName)
			m.chName = append(m.chName, fmt.Sprintf("down:%d", i))
			m.chBW = append(m.chBW, r.Down)
		}
		if r.Link != "" {
			m.linkCh[i] = linkIdx[r.Link]
		}
	}
	// refBW is the resource-averaged bandwidth backing NominalComm (the
	// rank-phase analogue of MeanComm): the declared default when present,
	// else the mean of all declared capacities, else 1.
	switch {
	case set.DefaultBW > 0:
		m.refBW = set.DefaultBW
	case len(m.chBW) > 0:
		sum := 0.0
		for _, bw := range m.chBW {
			sum += bw
		}
		m.refBW = sum / float64(len(m.chBW))
	default:
		m.refBW = 1
	}
	return m, nil
}

// Set returns the bound catalog.
func (m *Model) Set() *Set { return m.set }

// NumFiles returns the catalog size.
func (m *Model) NumFiles() int { return len(m.set.Files) }

// Index returns the dense index of the named file, or -1 ("" included).
func (m *Model) Index(id string) int {
	if i, ok := m.idx[id]; ok {
		return i
	}
	return -1
}

// FileID returns the ID of file i.
func (m *Model) FileID(i int) string { return m.set.Files[i].ID }

// Size returns the size of file i.
func (m *Model) Size(i int) float64 { return m.set.Files[i].Size }

// PreStaged reports whether file i has a pre-staged replica on r.
func (m *Model) PreStaged(i int, r grid.ID) bool {
	if int(r) < 0 || int(r) >= m.nRes {
		return false
	}
	return m.staged[i*m.nRes+int(r)]
}

// Store returns r's storage capacity (0 = unbounded).
func (m *Model) Store(r grid.ID) float64 {
	if int(r) < 0 || int(r) >= m.nRes {
		return 0
	}
	return m.store[r]
}

// NumChannels returns the number of capacity channels the pool declares.
func (m *Model) NumChannels() int { return len(m.chName) }

// ChannelName returns the stable name of channel c.
func (m *Model) ChannelName(c int) string { return m.chName[c] }

// ChannelBW returns the bandwidth of channel c.
func (m *Model) ChannelBW(c int) float64 { return m.chBW[c] }

// AppendChannels appends the dense channel indices a src→dst transfer
// occupies — src's uplink, dst's downlink, and each endpoint's shared
// link (once, when both sit behind the same link) — and returns the
// extended slice.
func (m *Model) AppendChannels(src, dst grid.ID, buf []int) []int {
	if src == dst {
		return buf
	}
	if c := m.upCh[src]; c >= 0 {
		buf = append(buf, c)
	}
	if c := m.downCh[dst]; c >= 0 {
		buf = append(buf, c)
	}
	ls, ld := m.linkCh[src], m.linkCh[dst]
	if ls >= 0 {
		buf = append(buf, ls)
	}
	if ld >= 0 && ld != ls {
		buf = append(buf, ld)
	}
	return buf
}

// EffBW returns the effective src→dst bandwidth: the minimum over every
// declared constraint on the path (src uplink, dst downlink, either
// endpoint's shared link) with DefaultBW as the baseline. With no
// constraint anywhere it returns +Inf (unmodelled path, free transfer).
func (m *Model) EffBW(src, dst grid.ID) float64 {
	bw := math.Inf(1)
	if v := m.set.DefaultBW; v > 0 {
		bw = v
	}
	if v := m.up[src]; v > 0 && v < bw {
		bw = v
	}
	if v := m.down[dst]; v > 0 && v < bw {
		bw = v
	}
	if c := m.linkCh[src]; c >= 0 && m.chBW[c] < bw {
		bw = m.chBW[c]
	}
	if c := m.linkCh[dst]; c >= 0 && m.chBW[c] < bw {
		bw = m.chBW[c]
	}
	return bw
}

// Duration returns the contention-free transfer time of file i from src
// to dst (0 when co-located or fully unconstrained).
func (m *Model) Duration(i int, src, dst grid.ID) float64 {
	if src == dst {
		return 0
	}
	bw := m.EffBW(src, dst)
	if math.IsInf(bw, 1) {
		return 0
	}
	return m.set.Files[i].Size / bw
}

// StaticComm is the contention-free edge-cost estimate for file i shipped
// from src to dst: zero when co-located or a replica is pre-staged on
// dst, else Duration. This is the derived size÷bandwidth cost that
// supersedes the raw edge Data weight when a catalog is bound.
func (m *Model) StaticComm(i int, src, dst grid.ID) float64 {
	if src == dst || m.PreStaged(i, dst) {
		return 0
	}
	return m.Duration(i, src, dst)
}

// NominalComm is the resource-averaged cost of shipping file i — the
// rank-phase stand-in for MeanComm on file edges: size over the reference
// bandwidth.
func (m *Model) NominalComm(i int) float64 { return m.set.Files[i].Size / m.refBW }
