package wire

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Appender is the one hand-written JSON encoder: the report loop's ack and
// plan, the server-sent events, and every document the daemon journals are
// written through it. Each document's AppendJSON (or AppendPlan,
// AppendReportAck) writes exactly the bytes json.Marshal would — compact,
// HTML-safe string escapes, encoding/json's number format, omitempty
// honoured — without reflection over the document and without allocating
// when the buffer has room. The one exception is a raw JSON body
// (RawValue): it is copied verbatim where json.Marshal would re-compact
// it. FuzzAppendAckParity here and FuzzAppendJournalParity in
// internal/server hold the encoders to that, byte for byte.

// Doc is a document with a hand-written encoder.
type Doc interface{ AppendJSON(e *Appender) }

// RawDoc is a document that is already JSON: one valid JSON value,
// written verbatim.
type RawDoc []byte

func (r RawDoc) AppendJSON(e *Appender) { e.RawValue(r) }

// NewAppender returns an appender writing after what dst holds.
func NewAppender(dst []byte) Appender { return Appender{b: dst} }

// Done returns the document, or — like json.Marshal — an error when it
// held a NaN or infinite number.
func (e *Appender) Done() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// AppendPlan appends p as one JSON line. Like json.Marshal it refuses a
// NaN or infinite number; dst's contents are then unspecified. m, when not
// nil, is the memory of the last plan encoded through it (see AckMemo).
func AppendPlan(dst []byte, p *Plan, m *AckMemo) ([]byte, error) {
	e := Appender{b: dst, m: m}
	p.AppendJSON(&e)
	return e.line()
}

// AppendReportAck appends a as one JSON line; see AppendPlan. An ack
// without a plan leaves m as it was.
func AppendReportAck(dst []byte, a *ReportAck, m *AckMemo) ([]byte, error) {
	e := Appender{b: dst, m: m}
	e.Raw(`{"workflow":`).Str(a.Workflow).Raw(`,"applied":`).Int(a.Applied).Raw(`,"decisions":`).Int(a.Decisions)
	e.Raw(`,"rescheduled":`).Bool(a.Rescheduled).OmitStr(`,"trigger":`, a.Trigger).Raw(`,"generation":`).Int(a.Generation)
	if a.Plan != nil {
		a.Plan.AppendJSON(e.Raw(`,"plan":`))
	}
	e.Raw(`,"done":`).Bool(a.Done).OmitFloat(`,"makespan":`, a.Makespan).Raw(`}`)
	return e.line()
}

// AckMemo is one workflow's memory of the last plan encoded through it.
// Successive plans of a workflow are mostly the same, so a row whose job,
// resource and times are bit for bit the previous plan's row at the same
// position is copied from the text written for it then, and a row that
// kept its job and resource is copied up to its start. The bytes are those
// of an encode without a memo. The memo keeps the plan's assignments, not
// a copy: they must not change while it does. A warmed memo allocates
// nothing; an encode that is refused leaves it empty. The zero value is an
// empty memo. It is not safe for concurrent use.
type AckMemo struct {
	rows  []Assignment // the last plan's assignments
	spans []rowSpan    // where each of them sits in text
	text  []byte       // the last plan's assignments array, between its brackets
}

// rowSpan is where one row's text sits: the row from at to end, its start
// value from start, its finish value from finish.
type rowSpan struct{ at, start, finish, end uint32 }

// finishKey is what a row holds between its start and finish values.
const finishKey = `,"finish":`

// reset forgets the previous plan.
func (m *AckMemo) reset() {
	m.rows, m.spans, m.text = nil, m.spans[:0], m.text[:0]
}

// Appender is the output under construction, the first number it could
// not represent, and the memo a plan goes through (nil for none).
type Appender struct {
	b   []byte
	err error
	m   *AckMemo
	// Where the document wrote numbers, by their bits, one slot per hash: a
	// plan or a state repeats its times (a job starts when another
	// finishes, a decision's clock is its event's time), and copying text
	// already written is cheaper than formatting the number again.
	floats [1 << floatSlotBits]textAt
}

const floatSlotBits = 8

// textAt is the text of the number with the given bits, at off in the
// output; n is 0 for an empty slot.
type textAt struct {
	bits   uint64
	off, n uint32
}

// wrote records that the number with the given bits is written from off
// to end in the output.
func (e *Appender) wrote(bits uint64, off, end int) {
	e.floats[bits*0x9E3779B97F4A7C15>>(64-floatSlotBits)] = textAt{bits, uint32(off), uint32(end - off)}
}

func (e *Appender) line() ([]byte, error) {
	if e.err != nil {
		if e.m != nil {
			e.m.reset()
		}
		return nil, e.err
	}
	return append(e.b, '\n'), nil
}

// AppendJSON writes p, its rows through e's memo when it has one.
func (p *Plan) AppendJSON(e *Appender) {
	e.Raw(`{"workflow":`).Str(p.Workflow).Raw(`,"generation":`).Int(p.Generation)
	e.Raw(`,"trigger":`).Str(p.Trigger).Raw(`,"makespan":`).Float(p.Makespan).Raw(`,"assignments":`)
	switch {
	case p.Assignments == nil:
		e.Raw(`null}`)
		if e.m != nil {
			e.m.reset()
		}
	case e.m != nil:
		e.Raw(`[`).memoRows(p.Assignments)
		e.Raw(`]}`)
	default:
		Array(e, p.Assignments, func(a *Assignment) { a.AppendJSON(e) }).Raw(`}`)
	}
}

func (a *Assignment) AppendJSON(e *Appender) {
	e.Raw(`{"job":`).Int(a.Job).Raw(`,"resource":`).Int(a.Resource)
	e.Raw(`,"start":`).Float(a.Start).Raw(`,"finish":`).Float(a.Finish).Raw(`}`)
}

func (d *Decision) AppendJSON(e *Appender) {
	e.Raw(`{"clock":`).Float(d.Clock).Raw(`,"pool_size":`).Int(d.PoolSize)
	e.Raw(`,"old_makespan":`).Float(d.OldMakespan).Raw(`,"new_makespan":`).Float(d.NewMakespan)
	e.Raw(`,"adopted":`).Bool(d.Adopted).Raw(`,"jobs_finished":`).Int(d.JobsFinished)
	e.Raw(`,"trigger":`).Str(d.Trigger).OmitInt(`,"arrived":`, d.Arrived).OmitFloat(`,"elapsed_ms":`, d.ElapsedMs)
	e.OmitFloat(`,"rank_ms":`, d.RankMs).OmitFloat(`,"place_ms":`, d.PlaceMs).Raw(`}`)
}

// AppendJSON writes ev: a journalled event, or the data line of a
// server-sent one.
func (ev *Event) AppendJSON(e *Appender) {
	e.Raw(`{"seq":`).Int(ev.Seq).Raw(`,"kind":`).Str(ev.Kind).Raw(`,"workflow":`).Str(ev.Workflow).OmitFloat(`,"time":`, ev.Time)
	if ev.Decision != nil {
		ev.Decision.AppendJSON(e.Raw(`,"decision":`))
	}
	e.OmitStr(`,"trigger":`, ev.Trigger).OmitInt(`,"arrived":`, ev.Arrived).OmitInt(`,"generation":`, ev.Generation)
	e.OmitFloat(`,"makespan":`, ev.Makespan).OmitStr(`,"error":`, ev.Error).Raw(`}`)
}

func (s *Status) AppendJSON(e *Appender) {
	e.Raw(`{"id":`).Str(s.ID).OmitStr(`,"name":`, s.Name).Raw(`,"state":`).Str(s.State)
	e.OmitStr(`,"mode":`, s.Mode).OmitStr(`,"tenant":`, s.Tenant).OmitStr(`,"grid":`, s.Grid)
	e.OmitInt(`,"generation":`, s.Generation).OmitInt(`,"reports":`, s.Reports).Raw(`,"policy":`).Str(s.Policy)
	e.Raw(`,"shard":`).Int(s.Shard).Raw(`,"jobs":`).Int(s.Jobs).Raw(`,"resources":`).Int(s.Resources)
	e.Raw(`,"events":`).Int(s.Events).Raw(`,"queue_ms":`).Float(s.QueueMs).OmitFloat(`,"compute_ms":`, s.ComputeMs)
	e.OmitFloat(`,"makespan":`, s.Makespan).OmitFloat(`,"initial_makespan":`, s.InitialMakespan)
	OmitArray(e.OmitFloat(`,"improvement":`, s.Improvement), `,"decisions":`, s.Decisions, func(d *Decision) { d.AppendJSON(e) })
	e.OmitInt(`,"adoptions":`, s.Adoptions).OmitStr(`,"error":`, s.Error).Raw(`}`)
}

// memoRows writes the assignments array's rows through e.m and leaves the
// memo holding them.
func (e *Appender) memoRows(rows []Assignment) {
	m, base := e.m, len(e.b)
	m.spans = slices.Grow(m.spans, max(len(rows)-len(m.spans), 0))[:len(rows)]
	for i := range rows {
		a := &rows[i]
		if i > 0 {
			e.Raw(`,`)
		}
		at := uint32(len(e.b) - base)
		span := rowSpan{at: at}
		if i < len(m.rows) && m.rows[i].Job == a.Job && m.rows[i].Resource == a.Resource {
			old := m.spans[i]
			sb, fb := math.Float64bits(a.Start), math.Float64bits(a.Finish)
			if math.Float64bits(m.rows[i].Start) == sb && math.Float64bits(m.rows[i].Finish) == fb {
				e.b = append(e.b, m.text[old.at:old.end]...)
				d := int(at) - int(old.at)
				m.spans[i] = rowSpan{at, old.start + uint32(d), old.finish + uint32(d), old.end + uint32(d)}
				from := base + d
				e.wrote(sb, from+int(old.start), from+int(old.finish)-len(finishKey))
				e.wrote(fb, from+int(old.finish), from+int(old.end)-1)
				continue
			}
			e.b = append(e.b, m.text[old.at:old.start]...)
		} else {
			e.Raw(`{"job":`).Int(a.Job).Raw(`,"resource":`).Int(a.Resource).Raw(`,"start":`)
		}
		span.start = uint32(len(e.b) - base)
		e.Float(a.Start)
		span.finish = uint32(len(e.b)-base) + uint32(len(finishKey))
		e.Raw(finishKey).Float(a.Finish).Raw(`}`)
		span.end = uint32(len(e.b) - base)
		m.spans[i] = span
	}
	m.rows = rows
	m.text = append(m.text[:0], e.b[base:]...)
}

// The value writers return e, so a document's fields chain.

func (e *Appender) Raw(s string) *Appender {
	e.b = append(e.b, s...)
	return e
}

func (e *Appender) Int(v int) *Appender {
	e.b = strconv.AppendInt(e.b, int64(v), 10)
	return e
}

func (e *Appender) Uint(v uint64) *Appender {
	e.b = strconv.AppendUint(e.b, v, 10)
	return e
}

func (e *Appender) Bool(v bool) *Appender {
	e.b = strconv.AppendBool(e.b, v)
	return e
}

// Float is encoding/json's float64 encoder: shortest round-trip digits,
// exponent form below 1e-6 and from 1e21, two-digit exponents trimmed to
// one (e-07 → e-7). A number the document already wrote is copied.
func (e *Appender) Float(f float64) *Appender {
	bits := math.Float64bits(f)
	if slot := &e.floats[bits*0x9E3779B97F4A7C15>>(64-floatSlotBits)]; slot.n != 0 && slot.bits == bits {
		e.b = append(e.b, e.b[slot.off:slot.off+slot.n]...)
		return e
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("wire: encode: unsupported value: %v", f)
		}
		return e
	}
	at := len(e.b)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
	e.wrote(bits, at, len(e.b))
	return e
}

// Str is encoding/json's string encoder. The daemon's own strings —
// workflow ids, trigger names — need no escaping and are copied; anything
// else (a control byte, a quote, HTML's <>&, non-ASCII) is json.Marshal's
// to escape, which a string never fails.
func (e *Appender) Str(s string) *Appender {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			e.b = append(e.b, q...)
			return e
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
	return e
}

// RawValue copies raw, one valid JSON value, verbatim; nothing is null.
func (e *Appender) RawValue(raw []byte) *Appender {
	if len(raw) == 0 {
		return e.Raw(`null`)
	}
	e.b = append(e.b, raw...)
	return e
}

// Bytes writes b as encoding/json writes a []byte: a base64 string, or null.
func (e *Appender) Bytes(b []byte) *Appender {
	if b == nil {
		return e.Raw(`null`)
	}
	e.b = append(base64.StdEncoding.AppendEncode(append(e.b, '"'), b), '"')
	return e
}

// Ints, Floats and Bools write a JSON array, null for a nil slice. (Not
// inlined: Array's closure stays on the stack only where Array is compiled.)
//
//go:noinline
func (e *Appender) Ints(xs []int) *Appender { return Array(e, xs, func(v *int) { e.Int(*v) }) }

//go:noinline
func (e *Appender) Floats(xs []float64) *Appender {
	return Array(e, xs, func(v *float64) { e.Float(*v) })
}

//go:noinline
func (e *Appender) Bools(xs []bool) *Appender { return Array(e, xs, func(v *bool) { e.Bool(*v) }) }

// The Omit methods write a key and its value unless the value is one
// omitempty leaves out. key carries its leading comma.
func (e *Appender) OmitStr(key, v string) *Appender {
	if v == "" {
		return e
	}
	return e.Raw(key).Str(v)
}

func (e *Appender) OmitInt(key string, v int) *Appender {
	if v == 0 {
		return e
	}
	return e.Raw(key).Int(v)
}

func (e *Appender) OmitFloat(key string, v float64) *Appender {
	if v == 0 {
		return e
	}
	return e.Raw(key).Float(v)
}

func (e *Appender) OmitBool(key string, v bool) *Appender {
	if !v {
		return e
	}
	return e.Raw(key).Raw(`true`)
}

// Array writes xs as a JSON array, each element by elem, null when xs is
// nil.
func Array[T any](e *Appender, xs []T, elem func(*T)) *Appender {
	if xs == nil {
		return e.Raw(`null`)
	}
	e.Raw(`[`)
	for i := range xs {
		if i > 0 {
			e.Raw(`,`)
		}
		elem(&xs[i])
	}
	return e.Raw(`]`)
}

// OmitArray is Array under omitempty. key carries its leading comma.
func OmitArray[T any](e *Appender, key string, xs []T, elem func(*T)) *Appender {
	if len(xs) == 0 {
		return e
	}
	return Array(e.Raw(key), xs, elem)
}
