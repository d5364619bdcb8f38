// Package dag models grid workflow applications as weighted directed acyclic
// graphs, following the system model of the AHEFT paper (Yu & Shi, IPDPS
// 2007) which is itself inherited from HEFT (Topcuoglu et al., 2002).
//
// A workflow is a graph G = (V, E): V is the set of jobs (nodes) and each
// edge (i, j) is a precedence constraint carrying the amount of data that
// job i must ship to job j. Computation costs live outside the graph (they
// depend on the resource a job runs on; see package cost); communication
// weights live on the edges.
//
// A validated graph is frozen in one layout, each edge stored once (see
// Graph); Preds, SuccEdges, Edges and TopoOrder hand out views of it.
package dag

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"
)

// JobID identifies a job inside one Graph. IDs are dense: the jobs of a
// graph with n jobs are numbered 0..n-1 in insertion order, which lets
// schedulers use flat slices instead of maps on hot paths.
type JobID int

// NoJob is the sentinel returned when a job lookup fails.
const NoJob JobID = -1

// Job is a node of the workflow DAG.
type Job struct {
	ID JobID
	// Name is a human-readable unique label, e.g. "n1" or "LAPW1_K7".
	Name string
	// Op is the operation (executable) the job runs. Scientific workflows
	// consist of many jobs but only a handful of unique operations (the
	// paper notes Montage has 11); the performance history repository keys
	// its statistics by Op so that one job's measured runtime improves the
	// estimate of every other job running the same program.
	Op string
}

// Edge is a data/precedence dependence between two jobs. Data is the
// communication cost incurred when the two jobs execute on different
// resources; co-located jobs communicate for free (paper §4.1, and the
// Fig. 4 sample where edge weight is the communication cost).
type Edge struct {
	From, To JobID
	Data     float64
	// File optionally names the data file shipped along the edge. When set
	// (and a file catalog is bound to the schedule; see internal/data), the
	// edge's communication cost is derived from the file's size and the
	// effective bandwidth between the resources instead of Data, and edges
	// sharing a File are satisfied by a single staged copy — the file-reuse
	// semantics. Empty means the edge is a plain weighted dependence.
	File string
}

// Graph is a workflow DAG. Construct with New, add jobs and edges, then
// call Validate before handing it to a scheduler; Decode returns a
// validated graph.
//
// Validate freezes the graph and lays it out once. Every edge is stored a
// single time, in edges, ordered by To and then From: the incoming edges
// of job j are edges[predOff[j]:predOff[j+1]], and an edge's position in
// edges is the dense index the kernel keys its ledgers by. The outgoing
// edges of j are succ[succOff[j]:succOff[j+1]], indices into edges ordered
// by To. The topological order is computed there too. Edges, Preds,
// SuccEdges and TopoOrder return these arrays themselves: shared views of
// a validated graph, which callers must not modify.
type Graph struct {
	name   string
	jobs   []Job
	byName map[string]JobID

	edges   []Edge  // by To, then From; in insertion order until Validate
	predOff []int32 // len Len()+1
	succ    []int32
	succOff []int32 // len Len()+1
	topo    []JobID

	out [][]int32 // before Validate only: per job, its outgoing edges' indices

	frozen bool
}

// New returns an empty workflow graph with the given name.
func New(name string) *Graph {
	return &Graph{name: name, byName: make(map[string]JobID)}
}

// Name returns the workflow's name.
func (g *Graph) Name() string { return g.name }

// Len returns the number of jobs in the graph.
func (g *Graph) Len() int { return len(g.jobs) }

// AddJob appends a job with the given name and operation and returns its ID.
// It panics if the name is already taken or the graph is frozen: both are
// programming errors in workload construction, not runtime conditions.
func (g *Graph) AddJob(name, op string) JobID {
	if g.frozen {
		panic("dag: AddJob on frozen graph")
	}
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("dag: duplicate job name %q", name))
	}
	id := JobID(len(g.jobs))
	g.jobs = append(g.jobs, Job{ID: id, Name: name, Op: op})
	g.byName[name] = id
	g.out = append(g.out, nil)
	return id
}

// AddEdge adds a dependence edge carrying data units of communication cost.
// It returns an error for unknown endpoints, self-loops, negative or
// non-finite data, or duplicate edges. Cycle detection is deferred to
// Validate.
func (g *Graph) AddEdge(from, to JobID, data float64) error {
	return g.AddFileEdge(from, to, data, "")
}

// AddFileEdge is AddEdge for an edge that ships the named data file; the
// edge's Data weight remains the legacy fallback cost used when no file
// catalog is bound (see Edge.File).
func (g *Graph) AddFileEdge(from, to JobID, data float64, file string) error {
	if g.frozen {
		return fmt.Errorf("dag: AddEdge on frozen graph %q", g.name)
	}
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("dag: edge (%d,%d) references unknown job", from, to)
	}
	if from == to {
		return fmt.Errorf("dag: self-loop on job %s", g.jobs[from].Name)
	}
	if data < 0 {
		return fmt.Errorf("dag: negative data %g on edge (%s,%s)", data, g.jobs[from].Name, g.jobs[to].Name)
	}
	if !(data <= math.MaxFloat64) { // NaN or +Inf: the kernel prices a transfer at it
		return fmt.Errorf("dag: non-finite data %g on edge (%s,%s)", data, g.jobs[from].Name, g.jobs[to].Name)
	}
	if _, dup := g.EdgeData(from, to); dup {
		return fmt.Errorf("dag: duplicate edge (%s,%s)", g.jobs[from].Name, g.jobs[to].Name)
	}
	g.out[from] = append(g.out[from], int32(len(g.edges)))
	g.edges = append(g.edges, Edge{From: from, To: to, Data: data, File: file})
	return nil
}

// MustEdge is AddEdge that panics on error; used by the workload generators
// whose construction logic guarantees well-formed edges.
func (g *Graph) MustEdge(from, to JobID, data float64) {
	if err := g.AddEdge(from, to, data); err != nil {
		panic(err)
	}
}

// MustFileEdge is AddFileEdge that panics on error.
func (g *Graph) MustFileEdge(from, to JobID, data float64, file string) {
	if err := g.AddFileEdge(from, to, data, file); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(id JobID) bool { return id >= 0 && int(id) < len(g.jobs) }

// Job returns the job with the given ID. It panics on an invalid ID.
func (g *Graph) Job(id JobID) Job {
	if !g.valid(id) {
		panic(fmt.Sprintf("dag: invalid job id %d", id))
	}
	return g.jobs[id]
}

// JobByName returns the ID of the named job, or NoJob if absent.
func (g *Graph) JobByName(name string) JobID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	return NoJob
}

// Jobs returns all jobs in ID order. The slice is shared; callers must not
// mutate it.
func (g *Graph) Jobs() []Job { return g.jobs }

// Edges returns every edge of a validated graph, ordered by To and then
// From: the i-th edge is the one with dense index i. Shared; do not mutate.
func (g *Graph) Edges() []Edge { return g.edges }

// Preds returns the incoming edges of job id in a validated graph, ordered
// by From. Shared slice; do not mutate.
func (g *Graph) Preds(id JobID) []Edge { return g.edges[g.predOff[id]:g.predOff[id+1]] }

// PredBase returns the dense index of job id's first incoming edge in a
// validated graph: the i-th entry of Preds(id) is Edges()[PredBase(id)+i].
func (g *Graph) PredBase(id JobID) int { return int(g.predOff[id]) }

// SuccEdges returns the indices into Edges of job id's outgoing edges,
// ordered by To once the graph is validated. Shared slice; do not mutate.
func (g *Graph) SuccEdges(id JobID) []int32 {
	if !g.frozen {
		return g.out[id]
	}
	return g.succ[g.succOff[id]:g.succOff[id+1]]
}

// Succs ranges over the outgoing edges of job id, ordered by To once the
// graph is validated, as slices.All ranges over a slice.
func (g *Graph) Succs(id JobID) iter.Seq2[int, Edge] {
	return func(yield func(int, Edge) bool) {
		for i, e := range g.SuccEdges(id) {
			if !yield(i, g.edges[e]) {
				return
			}
		}
	}
}

// EdgeData returns the data weight on edge (from, to) and whether the edge
// exists.
func (g *Graph) EdgeData(from, to JobID) (float64, bool) {
	for _, e := range g.SuccEdges(from) {
		if g.edges[e].To == to {
			return g.edges[e].Data, true
		}
	}
	return 0, false
}

// NumEdges returns the number of edges in the graph.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Entries returns the IDs of a validated graph's jobs with no
// predecessors, in ID order.
func (g *Graph) Entries() []JobID { return none(g.predOff) }

// Exits returns the IDs of a validated graph's jobs with no successors, in
// ID order. The paper permits multiple exit jobs; the makespan is the max
// over all of them.
func (g *Graph) Exits() []JobID { return none(g.succOff) }

// none returns the jobs whose run of edges in off is empty.
func none(off []int32) []JobID {
	var out []JobID
	for j := range len(off) - 1 {
		if off[j] == off[j+1] {
			out = append(out, JobID(j))
		}
	}
	return out
}

// Validate checks that the graph is a non-empty DAG with no edge twice —
// so it has at least one entry and one exit — then lays it out (see Graph)
// and freezes it. Validating a frozen graph is a no-op.
func (g *Graph) Validate() error {
	if g.frozen {
		return nil
	}
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	if err := g.freeze(sc, len(g.edges), func(i int) Edge { return g.edges[i] }); err != nil {
		return err
	}
	g.out = nil
	return nil
}

// MustValidate calls Validate and panics on error.
func (g *Graph) MustValidate() *Graph {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// scratch is the layout's and Decode's working memory, pooled: none of it
// outlives the call, and what holds views of a request body is cleared
// before it goes back.
type scratch struct {
	jobs              []jobDoc
	edges             []edgeDoc
	byFrom, perm, cur []int32
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// freeze lays out the m edges edge(0..m-1) as Graph describes, by counting
// sort — stable by From, then by To — and computes the topological order:
// Kahn's algorithm with a min-ID tie-break. It fails on an empty graph, a
// cycle or a repeated edge, leaving g as it was, and freezes g otherwise.
func (g *Graph) freeze(sc *scratch, m int, edge func(i int) Edge) error {
	n := len(g.jobs)
	if n == 0 {
		return fmt.Errorf("dag %q: no jobs", g.name)
	}
	ints := make([]int32, 2*(n+1)+m)
	predOff, succOff, succ := ints[:n+1:n+1], ints[n+1:2*(n+1):2*(n+1)], ints[2*(n+1):]
	for i := range m {
		e := edge(i)
		predOff[e.To+1]++
		succOff[e.From+1]++
	}
	for j := range n {
		predOff[j+1] += predOff[j]
		succOff[j+1] += succOff[j]
	}
	sc.byFrom, sc.perm, sc.cur = slices.Grow(sc.byFrom[:0], m)[:m], slices.Grow(sc.perm[:0], max(m, n)), slices.Grow(sc.cur[:0], n)[:n]
	byFrom, perm, cur := sc.byFrom, sc.perm[:m], sc.cur
	copy(cur, succOff)
	for i := range m {
		f := edge(i).From
		byFrom[cur[f]] = int32(i)
		cur[f]++
	}
	copy(cur, predOff)
	for _, i := range byFrom {
		t := edge(int(i)).To
		perm[cur[t]] = i
		cur[t]++
	}
	edges := make([]Edge, m)
	for k, i := range perm {
		edges[k] = edge(int(i))
	}
	copy(cur, succOff)
	for k := range edges {
		f := edges[k].From
		succ[cur[f]] = int32(k)
		cur[f]++
	}

	// Kahn's algorithm. ready is a binary min-heap of job IDs, cut from
	// perm's array, so the smallest ready ID is next whatever order jobs
	// become ready in — a sorted slice costs k²/2 moves when k jobs are
	// released in descending ID order. Ascending IDs are already a heap.
	indeg, ready := cur, sc.perm[:0]
	for j := range n {
		if indeg[j] = predOff[j+1] - predOff[j]; indeg[j] == 0 {
			ready = append(ready, int32(j))
		}
	}
	topo := make([]JobID, 0, n)
	for len(ready) > 0 {
		j := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c+1 < last && ready[c+1] < ready[c] {
				c++
			}
			if c >= last || ready[i] <= ready[c] {
				break
			}
			ready[i], ready[c] = ready[c], ready[i]
			i = c
		}
		topo = append(topo, JobID(j))
		for _, k := range succ[succOff[j]:succOff[j+1]] {
			to := edges[k].To
			if indeg[to]--; indeg[to] == 0 {
				ready = append(ready, int32(to))
				for i := len(ready) - 1; i > 0 && ready[i] < ready[(i-1)/2]; i = (i - 1) / 2 {
					ready[i], ready[(i-1)/2] = ready[(i-1)/2], ready[i]
				}
			}
		}
	}
	if len(topo) != n {
		return fmt.Errorf("dag %q: cycle detected (%d of %d jobs ordered)", g.name, len(topo), n)
	}
	for k := 1; k < m; k++ {
		if a, b := edges[succ[k-1]], edges[succ[k]]; a.From == b.From && a.To == b.To {
			return fmt.Errorf("dag: duplicate edge (%s,%s)", g.jobs[a.From].Name, g.jobs[a.To].Name)
		}
	}
	g.edges, g.predOff, g.succ, g.succOff, g.topo = edges, predOff, succ, succOff, topo
	g.frozen = true
	return nil
}

// TopoOrder returns the jobs of a validated graph in its deterministic
// topological order (Kahn's algorithm with a min-ID tie-break), and nil
// for a graph not yet validated. Shared slice; do not mutate.
func (g *Graph) TopoOrder() []JobID { return g.topo }

// Levels partitions the jobs into precedence levels: level 0 holds the
// entries, and each job sits one past its deepest predecessor. The level
// structure determines the workflow's degree of parallelism — the paper's
// central explanation for why BLAST (wide levels) benefits from adaptive
// rescheduling far more than WIEN2K (whose LAPW2_FERMI level has width 1).
func (g *Graph) Levels() [][]JobID {
	order := g.topo
	if order == nil {
		return nil
	}
	depth := make([]int, len(g.jobs))
	maxDepth := 0
	for _, j := range order {
		for _, e := range g.Preds(j) {
			if d := depth[e.From] + 1; d > depth[j] {
				depth[j] = d
			}
		}
		if depth[j] > maxDepth {
			maxDepth = depth[j]
		}
	}
	levels := make([][]JobID, maxDepth+1)
	for _, j := range order {
		levels[depth[j]] = append(levels[depth[j]], j)
	}
	return levels
}

// Width returns the maximum number of jobs in any level: the workflow's
// peak degree of parallelism.
func (g *Graph) Width() int {
	w := 0
	for _, lv := range g.Levels() {
		if len(lv) > w {
			w = len(lv)
		}
	}
	return w
}

// Clone returns a deep, unfrozen copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.name)
	for _, j := range g.jobs {
		c.AddJob(j.Name, j.Op)
	}
	for _, e := range g.edges {
		c.MustFileEdge(e.From, e.To, e.Data, e.File)
	}
	return c
}
