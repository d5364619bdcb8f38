package server

import (
	"encoding/binary"
	"math"
	"sync"

	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/wire"
)

// A terminal workflow keeps one record: its status document, the event
// log settle kept and a live workflow's last plan, encoded once into an
// exactly-sized []byte the collector never scans. Every read decodes it —
// status, the SSE replay, GET …/plan, the journal's terminal record and
// a snapshot's terminal entries — so what it serves is what the running
// entry served. The record never leaves the process.
//
// One recordCodec walks each struct both ways. Integers are zigzag
// varints, floats their eight IEEE 754 bytes, and a string a varint x:
// recordWords[x>>1] when x is even, else x>>1 bytes that follow. Each
// struct opens with a mask of the fields it holds, one bit per field in
// the order they are walked; a zero field (a float by its bits, so −0 is
// kept) is its clear bit alone, and a bool is its bit. A slice is its
// length plus one, 0 for nil. FuzzTerminalRecord holds decode ∘ encode
// to the identity.

// recordWords are the strings a record names by index: every state,
// event kind, mode, trigger and policy name the daemon writes (StateDone
// and StateFailed are also the last event's kind).
var recordWords = append([]string{"", StateQueued, StateRunning, StateDone, StateFailed,
	"submitted", "started", "plan", "decision", wire.ModeAnalytic, wire.ModeLive, "initial"},
	append(planner.TriggerNames[:], policy.Names()...)...)

var recordWordIndex = func() map[string]int {
	m := make(map[string]int, len(recordWords))
	for i, w := range recordWords {
		m[w] = i
	}
	return m
}()

// recordBufs holds the buffers records are encoded into before each is
// copied out at its exact size.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// sealRecord encodes a terminal entry: st, log without its decision
// events when cutDecisions allows (each kept entry counting the ones cut
// ahead of it), and plan.
func sealRecord(id string, st *wire.Status, log []eventRec, plan *wire.Plan) []byte {
	buf := recordBufs.Get().(*[]byte)
	c := recordCodec{b: (*buf)[:0]}
	c.status(id, st)
	cut := cutDecisions(log, st.Decisions)
	kept := len(log)
	if cut {
		kept -= len(st.Decisions)
	}
	c.count(kept)
	k := 0
	for _, rec := range log {
		if cut && rec.decision != nil {
			k++
			continue
		}
		rec.cut = k
		c.event(&rec)
	}
	c.plan(id, &plan)
	out := append(make([]byte, 0, len(c.b)), c.b...)
	*buf = c.b
	recordBufs.Put(buf)
	return out
}

// decodeRecord is sealRecord's inverse.
func decodeRecord(id string, rec []byte) (en entry) {
	c := recordCodec{b: rec, decode: true}
	c.status(id, &en.st)
	en.events = make([]eventRec, c.count(0))
	for i := range en.events {
		c.event(&en.events[i])
	}
	c.plan(id, &en.plan)
	return en
}

// decodeStatus decodes the record's head, the status document, alone.
func decodeStatus(id string, rec []byte) (st wire.Status) {
	c := recordCodec{b: rec, decode: true}
	c.status(id, &st)
	return st
}

// cutDecisions reports whether settle may drop log's decision events:
// they are, in order, exactly the events of ds, and none ends the log — a
// run that ended normally lists them all, and most of its log is
// decisions. eventsFrom puts them back from the status, in their places.
func cutDecisions(log []eventRec, ds []wire.Decision) bool {
	k := 0
	for _, rec := range log {
		if rec.decision == nil {
			continue
		}
		if k == len(ds) || *rec.decision != ds[k] || rec != recordOf(decisionEvent(rec.decision)) {
			return false
		}
		k++
	}
	return k == len(ds) && (k == 0 || log[len(log)-1].decision == nil)
}

// recordCodec encodes a record into b or, when decode is set, decodes
// the rest of b into the values it walks. Encoding only reads them.
type recordCodec struct {
	b      []byte
	decode bool
	mask   []byte // the open struct's mask (decode)
	at, n  int    // where the open struct's mask sits (encode); its next bit
}

// fields opens a struct whose fields width mask bytes describe.
func (c *recordCodec) fields(width int) {
	c.n = 0
	if c.decode {
		c.mask, c.b = c.b[:width], c.b[width:]
		return
	}
	c.at = len(c.b)
	c.b = append(c.b, make([]byte, width)...)
}

// has codes the next field's bit: set when ok (encode), as read (decode).
func (c *recordCodec) has(ok bool) bool {
	i, bit := c.n/8, byte(1)<<(c.n%8)
	c.n++
	if c.decode {
		return c.mask[i]&bit != 0
	}
	if ok {
		c.b[c.at+i] |= bit
	}
	return ok
}

// count codes n+1, and returns n.
func (c *recordCodec) count(n int) int {
	if c.decode {
		x, k := binary.Uvarint(c.b)
		c.b = c.b[k:]
		return int(x) - 1
	}
	c.b = binary.AppendUvarint(c.b, uint64(n+1))
	return n
}

func (c *recordCodec) varint(v *int) {
	if c.decode {
		x, k := binary.Varint(c.b)
		*v, c.b = int(x), c.b[k:]
		return
	}
	c.b = binary.AppendVarint(c.b, int64(*v))
}

func (c *recordCodec) f64(f *float64) {
	if c.decode {
		*f, c.b = math.Float64frombits(binary.LittleEndian.Uint64(c.b)), c.b[8:]
		return
	}
	c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*f))
}

func (c *recordCodec) word(s *string) {
	if c.decode {
		x, k := binary.Uvarint(c.b)
		c.b = c.b[k:]
		if x&1 == 0 {
			*s = recordWords[x>>1]
			return
		}
		*s, c.b = string(c.b[:x>>1]), c.b[x>>1:]
		return
	}
	if i, ok := recordWordIndex[*s]; ok {
		c.b = binary.AppendUvarint(c.b, uint64(i)<<1)
		return
	}
	c.b = binary.AppendUvarint(c.b, uint64(len(*s))<<1|1)
	c.b = append(c.b, *s...)
}

func (c *recordCodec) strs(ss ...*string) {
	for _, s := range ss {
		if c.has(*s != "") {
			c.word(s)
		}
	}
}

func (c *recordCodec) ints(vs ...*int) {
	for _, v := range vs {
		if c.has(*v != 0) {
			c.varint(v)
		}
	}
}

func (c *recordCodec) floats(fs ...*float64) {
	for _, f := range fs {
		if c.has(math.Float64bits(*f) != 0) {
			c.f64(f)
		}
	}
}

// ident codes a field that is almost always the workflow's id: its bit
// says it is not.
func (c *recordCodec) ident(s *string, id string) {
	if c.has(*s != id) {
		c.word(s)
	} else if c.decode {
		*s = id
	}
}

// codeSlice codes s's length (nil kept apart from empty) and each element.
func codeSlice[T any](c *recordCodec, s *[]T, each func(*T)) {
	n := len(*s)
	if *s == nil {
		n = -1
	}
	if n = c.count(n); c.decode && n >= 0 {
		*s = make([]T, n)
	}
	for i := range *s {
		each(&(*s)[i])
	}
}

func (c *recordCodec) status(id string, st *wire.Status) {
	c.fields(3)
	c.ident(&st.ID, id)
	c.strs(&st.Name, &st.State, &st.Mode, &st.Tenant, &st.Grid, &st.Policy, &st.Error)
	c.ints(&st.Generation, &st.Reports, &st.Shard, &st.Jobs, &st.Resources, &st.Events, &st.Adoptions)
	c.floats(&st.QueueMs, &st.ComputeMs, &st.Makespan, &st.InitialMakespan, &st.Improvement)
	codeSlice(c, &st.Decisions, c.decision)
}

func (c *recordCodec) decision(d *wire.Decision) {
	c.fields(2)
	c.floats(&d.Clock, &d.OldMakespan, &d.NewMakespan, &d.ElapsedMs, &d.RankMs, &d.PlaceMs)
	c.ints(&d.PoolSize, &d.JobsFinished, &d.Arrived)
	c.strs(&d.Trigger)
	if c.has(d.Adopted) && c.decode {
		d.Adopted = true
	}
}

func (c *recordCodec) event(rec *eventRec) {
	c.fields(1)
	c.strs(&rec.kind, &rec.note)
	c.floats(&rec.time, &rec.makespan)
	c.ints(&rec.generation, &rec.cut)
	if c.has(rec.decision != nil) {
		if c.decode {
			rec.decision = new(wire.Decision)
		}
		c.decision(rec.decision)
	}
}

func (c *recordCodec) plan(id string, p **wire.Plan) {
	c.fields(1)
	if !c.has(*p != nil) {
		return
	}
	if c.decode {
		*p = new(wire.Plan)
	}
	pl := *p
	c.ident(&pl.Workflow, id)
	c.strs(&pl.Trigger)
	c.ints(&pl.Generation)
	c.floats(&pl.Makespan)
	codeSlice(c, &pl.Assignments, func(a *wire.Assignment) {
		c.varint(&a.Job)
		c.varint(&a.Resource)
		c.f64(&a.Start)
		c.f64(&a.Finish)
	})
}
