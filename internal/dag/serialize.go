package dag

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"aheft/internal/jsonscan"
)

// WireVersion is the current version of the graph wire format. Documents
// written by MarshalJSON carry it in a "v" field; FromJSON accepts absent
// or zero versions (pre-versioning documents) up to the current one and
// rejects anything newer, so a daemon never misparses a future format.
// The full submission envelope — graph plus estimator table plus pool —
// lives in package internal/wire, which composes this codec with the
// grid.Pool and cost.Table codecs (the import direction forbids hosting
// them here: cost and grid must not be imported by dag).
const WireVersion = 1

// graphJSON is the on-disk representation of a workflow, as MarshalJSON
// writes it (Decode reads the same fields without it). Jobs are stored in
// ID order so that round-tripping preserves IDs.
type graphJSON struct {
	V     int        `json:"v,omitempty"`
	Name  string     `json:"name"`
	Jobs  []jobJSON  `json:"jobs"`
	Edges []edgeJSON `json:"edges"`
}

type jobJSON struct {
	Name string `json:"name"`
	Op   string `json:"op,omitempty"`
}

type edgeJSON struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Data float64 `json:"data"`
	File string  `json:"file,omitempty"`
}

// MarshalJSON encodes the graph as a portable JSON document keyed by job
// names (not numeric IDs), so edited files remain stable under reordering.
func (g *Graph) MarshalJSON() ([]byte, error) {
	doc := graphJSON{V: WireVersion, Name: g.name}
	for _, j := range g.jobs {
		doc.Jobs = append(doc.Jobs, jobJSON{Name: j.Name, Op: j.Op})
	}
	for i := range g.succ {
		for _, e := range g.succ[i] {
			doc.Edges = append(doc.Edges, edgeJSON{
				From: g.jobs[e.From].Name,
				To:   g.jobs[e.To].Name,
				Data: e.Data,
				File: e.File,
			})
		}
	}
	sort.Slice(doc.Edges, func(a, b int) bool {
		if doc.Edges[a].From != doc.Edges[b].From {
			return doc.Edges[a].From < doc.Edges[b].From
		}
		return doc.Edges[a].To < doc.Edges[b].To
	})
	return json.MarshalIndent(doc, "", "  ")
}

// edgeDoc is one decoded "edges" element. The endpoint names are not
// kept, so they stay views of the input until Decode resolves them into
// src and dst.
type edgeDoc struct {
	from, to []byte
	data     float64
	file     string
	src, dst JobID
}

// edgeDocs recycles Decode's "edges" scratch. A buffer is cleared before
// it goes back, so it holds no view of a request body once Decode returns
// and decodes exactly as a fresh one would.
var edgeDocs = sync.Pool{New: func() any { return new([]edgeDoc) }}

// FromJSON decodes a graph previously produced by MarshalJSON. The result
// is validated before being returned.
func FromJSON(data []byte) (*Graph, error) {
	s := jsonscan.New(data)
	g, err := Decode(s)
	if err != nil {
		return nil, err
	}
	if err := s.End(); err != nil {
		return nil, fmt.Errorf("dag: decode: %w", err)
	}
	return g, nil
}

// Decode reads one graph document from s — the one decoder of the format,
// standalone (FromJSON) or embedded in a submission — and builds the
// validated graph from it directly.
func Decode(s *jsonscan.Scanner) (*Graph, error) {
	var (
		v    int
		name string
		jobs []Job
	)
	buf := edgeDocs.Get().(*[]edgeDoc)
	edges := (*buf)[:0]
	defer func() {
		if cap(edges) > cap(*buf) {
			*buf = edges
		}
		clear((*buf)[:cap(*buf)])
		edgeDocs.Put(buf)
	}()
	s.Object("v", &v, "name", &name,
		"jobs", func() {
			jobs = jsonscan.Array(s, jobs, func(j *Job) { s.Object("name", &j.Name, "op", &j.Op) })
		},
		"edges", func() {
			edges = jsonscan.Array(s, edges, func(e *edgeDoc) {
				s.Object("from", &e.from, "to", &e.to, "data", &e.data, "file", &e.file)
			})
		})
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("dag: decode: %w", err)
	}
	if v < 0 || v > WireVersion {
		return nil, fmt.Errorf("dag: decode: unsupported wire version %d (max %d)", v, WireVersion)
	}
	g := &Graph{name: name, jobs: jobs, byName: make(map[string]JobID, len(jobs))}
	for i := range jobs {
		jobs[i].ID = JobID(i)
		if _, dup := g.byName[jobs[i].Name]; dup {
			return nil, fmt.Errorf("dag: decode: duplicate job %q", jobs[i].Name)
		}
		g.byName[jobs[i].Name] = JobID(i)
	}
	outdeg, indeg := make([]int, len(jobs)), make([]int, len(jobs))
	for i := range edges {
		e := &edges[i]
		from, okFrom := g.byName[string(e.from)]
		to, okTo := g.byName[string(e.to)]
		switch {
		case !okFrom || !okTo:
			return nil, fmt.Errorf("dag: decode: edge (%s,%s) references unknown job", e.from, e.to)
		case from == to:
			return nil, fmt.Errorf("dag: self-loop on job %s", e.from)
		case e.data < 0:
			return nil, fmt.Errorf("dag: negative data %g on edge (%s,%s)", e.data, e.from, e.to)
		}
		e.src, e.dst = from, to
		outdeg[from]++
		indeg[to]++
	}
	// No AddFileEdge: its search for a duplicate on every insert is
	// quadratic in a hub's degree. Validate finds one in the sorted lists.
	g.succ, g.pred = adjacency(outdeg), adjacency(indeg)
	for _, d := range edges {
		e := Edge{From: d.src, To: d.dst, Data: d.data, File: d.file}
		g.succ[e.From] = append(g.succ[e.From], e)
		g.pred[e.To] = append(g.pred[e.To], e)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// adjacency returns one empty edge list per job with room for the degree
// counted for it, all cut from one array; a job without edges keeps a nil
// list, as AddJob leaves it.
func adjacency(degree []int) [][]Edge {
	total := 0
	for _, d := range degree {
		total += d
	}
	backing, lists := make([]Edge, total), make([][]Edge, len(degree))
	for i, d := range degree {
		if d > 0 {
			lists[i], backing = backing[:0:d], backing[d:]
		}
	}
	return lists
}

// UnmarshalJSON makes *Graph a json.Unmarshaler over the FromJSON wire
// format. The decoded graph is fully validated; on error the receiver is
// left untouched.
func (g *Graph) UnmarshalJSON(data []byte) error {
	ng, err := FromJSON(data)
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}

// DOT renders the graph in Graphviz dot syntax, with edge labels carrying
// the communication weight. Useful for eyeballing generated workloads.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.name)
	b.WriteString("  rankdir=TB;\n  node [shape=box];\n")
	for _, j := range g.jobs {
		if j.Op != "" && j.Op != j.Name {
			fmt.Fprintf(&b, "  %q [label=\"%s\\n(%s)\"];\n", j.Name, j.Name, j.Op)
		} else {
			fmt.Fprintf(&b, "  %q;\n", j.Name)
		}
	}
	for i := range g.succ {
		for _, e := range g.succ[i] {
			fmt.Fprintf(&b, "  %q -> %q [label=\"%g\"];\n", g.jobs[e.From].Name, g.jobs[e.To].Name, e.Data)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
