package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced pass. Spans of one operation
// share Op; Parent names the span that caused this one (0 for an
// operation's root). Times are nanoseconds since the trace began.
//
// A shadow span is a layer's public entry point replayed on the
// operation's input after the real call returned — product code carries
// no spans yet, so this is how a layer's share is measured from outside.
// Its duration is the replay's measured duration; its start is laid out
// inside the parent, after the parent's earlier shadow children, so that
// self time (duration minus the children's cover) reads the same for
// real and shadow spans and the file draws as a flame chart.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
	// Allocs and Bytes are runtime.MemStats deltas (Mallocs, TotalAlloc)
	// around the call, where taken.
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	cursor map[int]int64 // parent → end of its last shadow child
	ops    int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cursor: map[int]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// newOp opens an operation: a root span with a fresh op id.
func (t *tracer) newOp(name string) int {
	t.ops++
	return t.begin(name, 0, t.ops)
}

// begin opens a real span; the caller ends it with end.
func (t *tracer) begin(name string, parent, op int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].End = t.now() }

func (t *tracer) get(id int) *span { return &t.spans[id-1] }

// shadow times fn as a shadow child of parent and returns the new span's
// id, so replays can nest.
func (t *tracer) shadow(parent int, name string, fn func()) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.spans[parent-1].Op, Name: name, Shadow: true})
	began := time.Now()
	fn()
	d := int64(time.Since(began))
	p := t.spans[parent-1]
	start := p.Start
	if c, ok := t.cursor[parent]; ok && c > start {
		start = c
	}
	t.cursor[parent] = start + d
	s := &t.spans[id-1]
	s.Start, s.End = start, start+d
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once;
// a child reaching past its parent is clipped.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceDir is where span files go, inside the benchmark's own directory.
const traceDir = "benchmark/out"

// writeTrace writes one span per line to benchmark/out/trace-<workload>.jsonl.
func writeTrace(workload string, spans []span) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
