// Package dag models grid workflow applications as weighted directed acyclic
// graphs, following the system model of the AHEFT paper (Yu & Shi, IPDPS
// 2007) which is itself inherited from HEFT (Topcuoglu et al., 2002).
//
// A workflow is a graph G = (V, E): V is the set of jobs (nodes) and each
// edge (i, j) is a precedence constraint carrying the amount of data that
// job i must ship to job j. Computation costs live outside the graph (they
// depend on the resource a job runs on; see package cost); communication
// weights live on the edges.
package dag

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// Graph is a mutable workflow DAG. Construct with New, add jobs and edges,
// then call Validate (or Freeze) before handing it to a scheduler.
type Graph struct {
	name   string
	jobs   []Job
	byName map[string]JobID

	succ [][]Edge // succ[i]: outgoing edges of job i, ordered by To
	pred [][]Edge // pred[i]: incoming edges of job i, ordered by From

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
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
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
	for _, e := range g.succ[from] {
		if e.To == to {
			return fmt.Errorf("dag: duplicate edge (%s,%s)", g.jobs[from].Name, g.jobs[to].Name)
		}
	}
	e := Edge{From: from, To: to, Data: data, File: file}
	g.succ[from] = append(g.succ[from], e)
	g.pred[to] = append(g.pred[to], e)
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

// Succs returns the outgoing edges of job id. Shared slice; do not mutate.
func (g *Graph) Succs(id JobID) []Edge { return g.succ[id] }

// Preds returns the incoming edges of job id. Shared slice; do not mutate.
func (g *Graph) Preds(id JobID) []Edge { return g.pred[id] }

// EdgeData returns the data weight on edge (from, to) and whether the edge
// exists.
func (g *Graph) EdgeData(from, to JobID) (float64, bool) {
	for _, e := range g.succ[from] {
		if e.To == to {
			return e.Data, true
		}
	}
	return 0, false
}

// NumEdges returns the number of edges in the graph.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.succ {
		n += len(es)
	}
	return n
}

// Entries returns the IDs of jobs with no predecessors, in ID order.
func (g *Graph) Entries() []JobID {
	var out []JobID
	for i := range g.jobs {
		if len(g.pred[i]) == 0 {
			out = append(out, JobID(i))
		}
	}
	return out
}

// Exits returns the IDs of jobs with no successors, in ID order. The paper
// permits multiple exit jobs; the makespan is the max over all of them.
func (g *Graph) Exits() []JobID {
	var out []JobID
	for i := range g.jobs {
		if len(g.succ[i]) == 0 {
			out = append(out, JobID(i))
		}
	}
	return out
}

// Validate checks that the graph is a non-empty DAG: at least one job, no
// cycles, no edge twice, and at least one entry and one exit. It also
// sorts adjacency lists for deterministic iteration and marks the graph
// frozen on success.
func (g *Graph) Validate() error {
	if len(g.jobs) == 0 {
		return fmt.Errorf("dag %q: no jobs", g.name)
	}
	if _, err := g.topoOrder(); err != nil {
		return err
	}
	if len(g.Entries()) == 0 {
		return fmt.Errorf("dag %q: no entry job", g.name)
	}
	if len(g.Exits()) == 0 {
		return fmt.Errorf("dag %q: no exit job", g.name)
	}
	for i := range g.succ {
		es := g.succ[i]
		slices.SortFunc(es, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		slices.SortFunc(g.pred[i], func(a, b Edge) int { return cmp.Compare(a.From, b.From) })
		for k := 1; k < len(es); k++ {
			if es[k].To == es[k-1].To {
				return fmt.Errorf("dag: duplicate edge (%s,%s)", g.jobs[i].Name, g.jobs[es[k].To].Name)
			}
		}
	}
	g.frozen = true
	return nil
}

// MustValidate calls Validate and panics on error.
func (g *Graph) MustValidate() *Graph {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// TopoOrder returns the jobs in a deterministic topological order (Kahn's
// algorithm with a min-ID tie-break). It returns an error if the graph
// contains a cycle.
func (g *Graph) TopoOrder() ([]JobID, error) { return g.topoOrder() }

func (g *Graph) topoOrder() ([]JobID, error) {
	n := len(g.jobs)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.pred[i])
	}
	// ready is a binary min-heap of job IDs, so the smallest ready ID is
	// next whatever order jobs become ready in — a sorted slice costs k²/2
	// moves when k jobs are released in descending ID order. Ascending IDs
	// are already a heap.
	var ready []JobID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, JobID(i))
		}
	}
	order := make([]JobID, 0, n)
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
		order = append(order, j)
		for _, e := range g.succ[j] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
				for i := len(ready) - 1; i > 0 && ready[i] < ready[(i-1)/2]; i = (i - 1) / 2 {
					ready[i], ready[(i-1)/2] = ready[(i-1)/2], ready[i]
				}
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag %q: cycle detected (%d of %d jobs ordered)", g.name, len(order), n)
	}
	return order, nil
}

// Levels partitions the jobs into precedence levels: level 0 holds the
// entries, and each job sits one past its deepest predecessor. The level
// structure determines the workflow's degree of parallelism — the paper's
// central explanation for why BLAST (wide levels) benefits from adaptive
// rescheduling far more than WIEN2K (whose LAPW2_FERMI level has width 1).
func (g *Graph) Levels() [][]JobID {
	order, err := g.topoOrder()
	if err != nil {
		return nil
	}
	depth := make([]int, len(g.jobs))
	maxDepth := 0
	for _, j := range order {
		for _, e := range g.pred[j] {
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
	for i := range g.succ {
		for _, e := range g.succ[i] {
			c.MustFileEdge(e.From, e.To, e.Data, e.File)
		}
	}
	return c
}
