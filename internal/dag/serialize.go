package dag

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

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
	for _, e := range g.edges {
		doc.Edges = append(doc.Edges, edgeJSON{
			From: g.jobs[e.From].Name,
			To:   g.jobs[e.To].Name,
			Data: e.Data,
			File: e.File,
		})
	}
	sort.Slice(doc.Edges, func(a, b int) bool {
		if doc.Edges[a].From != doc.Edges[b].From {
			return doc.Edges[a].From < doc.Edges[b].From
		}
		return doc.Edges[a].To < doc.Edges[b].To
	})
	return json.MarshalIndent(doc, "", "  ")
}

// jobDoc is one decoded "jobs" element, and edgeDoc one "edges" element.
// Their strings stay views of the input until Decode copies the names
// into the graph's one string and resolves the endpoints into src and dst.
type (
	jobDoc  struct{ name, op []byte }
	edgeDoc struct {
		from, to []byte
		data     float64
		file     string
		src, dst JobID
	}
)

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
// validated graph from it directly. Every job's Name and Op is a piece of
// one string, and the edges are laid out straight from the document's
// order (see Graph). Its scratch goes back to a pool cleared, so it holds
// no view of the input once Decode returns.
func Decode(s *jsonscan.Scanner) (*Graph, error) {
	var (
		v    int
		name string
	)
	sc := scratches.Get().(*scratch)
	jobs, edges := sc.jobs[:0], sc.edges[:0]
	defer func() {
		if cap(jobs) > cap(sc.jobs) {
			sc.jobs = jobs
		}
		if cap(edges) > cap(sc.edges) {
			sc.edges = edges
		}
		clear(sc.jobs[:cap(sc.jobs)])
		clear(sc.edges[:cap(sc.edges)])
		scratches.Put(sc)
	}()
	s.Object("v", &v, "name", &name,
		"jobs", func() {
			jobs = jsonscan.Array(s, jobs, func(j *jobDoc) { s.Object("name", &j.name, "op", &j.op) })
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
	size := 0
	for _, j := range jobs {
		size += len(j.name) + len(j.op)
	}
	var b strings.Builder
	b.Grow(size)
	for _, j := range jobs {
		b.Write(j.name)
		b.Write(j.op)
	}
	names := b.String()
	g := &Graph{name: name, jobs: make([]Job, len(jobs)), byName: make(map[string]JobID, len(jobs))}
	for i, j := range jobs {
		name, op := names[:len(j.name)], names[len(j.name):len(j.name)+len(j.op)]
		names = names[len(name)+len(op):]
		if _, dup := g.byName[name]; dup {
			return nil, fmt.Errorf("dag: decode: duplicate job %q", name)
		}
		g.jobs[i] = Job{ID: JobID(i), Name: name, Op: op}
		g.byName[name] = JobID(i)
	}
	for i := range edges {
		e := &edges[i]
		from, okFrom := g.byName[string(e.from)]
		to, okTo := g.byName[string(e.to)]
		switch {
		case !okFrom || !okTo:
			return nil, fmt.Errorf("dag: decode: edge (%s,%s) references unknown job", e.from, e.to)
		case from == to:
			return nil, fmt.Errorf("dag: self-loop on job %s", e.from)
		case e.data < 0: // the only bad weight: jsonscan refuses a number no float64 holds
			return nil, fmt.Errorf("dag: negative data %g on edge (%s,%s)", e.data, e.from, e.to)
		}
		e.src, e.dst = from, to
	}
	// No AddFileEdge: its search for a duplicate on every insert is
	// quadratic in a hub's degree. freeze finds one in the sorted layout.
	err := g.freeze(sc, len(edges), func(i int) Edge {
		d := &edges[i]
		return Edge{From: d.src, To: d.dst, Data: d.data, File: d.file}
	})
	if err != nil {
		return nil, err
	}
	return g, nil
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
