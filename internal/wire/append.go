package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Append encoders for the two documents of the report loop's hot path: the
// ack of every report and the plan an adopting ack (or GET …/plan)
// carries — up to a thousand assignments, re-sent on every adoption. They
// write exactly the bytes json.Marshal would (compact, HTML-safe string
// escapes, encoding/json's number format) plus the newline json.Encoder
// ends a document with, without reflection over the document and without
// allocating when dst has room. FuzzAppendAckParity holds them to that,
// byte for byte, with and without an AckMemo.

// AppendPlan appends p as one JSON line. Like json.Marshal it refuses a
// NaN or infinite number; dst's contents are then unspecified. m, when not
// nil, is the memory of the last plan encoded through it (see AckMemo).
func AppendPlan(dst []byte, p *Plan, m *AckMemo) ([]byte, error) {
	e := appender{b: dst, m: m}
	e.plan(p)
	return e.line()
}

// AppendReportAck appends a as one JSON line; see AppendPlan. An ack
// without a plan leaves m as it was.
func AppendReportAck(dst []byte, a *ReportAck, m *AckMemo) ([]byte, error) {
	e := appender{b: dst, m: m}
	e.raw(`{"workflow":`).str(a.Workflow)
	e.raw(`,"applied":`).int(a.Applied)
	e.raw(`,"decisions":`).int(a.Decisions)
	e.raw(`,"rescheduled":`).bool(a.Rescheduled)
	if a.Trigger != "" {
		e.raw(`,"trigger":`).str(a.Trigger)
	}
	e.raw(`,"generation":`).int(a.Generation)
	if a.Plan != nil {
		e.raw(`,"plan":`).plan(a.Plan)
	}
	e.raw(`,"done":`).bool(a.Done)
	if a.Makespan != 0 {
		e.raw(`,"makespan":`).float(a.Makespan)
	}
	e.raw(`}`)
	return e.line()
}

// AckMemo is one workflow's memory of the last plan encoded through it.
// Successive plans of a workflow are mostly the same, and a plan repeats
// its own times — a job starts when one a few rows up finishes. So a row
// whose job, resource and times are bit for bit the previous plan's row at
// the same position is copied from the text written for it then, a row
// that kept its job and resource is copied up to its start, and a time is
// looked up among the last ones this plan wrote before strconv formats it.
// The bytes are those of an encode without a memo. The memo keeps the
// plan's assignments, not a copy: they must not change while it does. A
// warmed memo allocates nothing; an encode that is refused leaves it empty.
// The zero value is an empty memo. It is not safe for concurrent use.
type AckMemo struct {
	rows  []Assignment // the last plan's assignments
	spans []rowSpan    // where each of them sits in text
	text  []byte       // the last plan's assignments array, between its brackets
	// The last times the encode under way wrote, a ring: their bits, and
	// where their text sits counted from the array's first row. seen is how
	// many it wrote.
	recent [32]uint64
	where  [32]textSpan
	seen   int
}

// rowSpan is where one row's text sits: the row from at to end, its start
// value from start, its finish value from finish.
type rowSpan struct{ at, start, finish, end uint32 }

type textSpan struct{ off, n uint32 }

// finishKey is what a row holds between its start and finish values.
const finishKey = `,"finish":`

// reset forgets the previous plan.
func (m *AckMemo) reset() {
	m.rows, m.spans, m.text = nil, m.spans[:0], m.text[:0]
}

func (m *AckMemo) remember(key uint64, off, n uint32) {
	i := m.seen % len(m.recent)
	m.recent[i], m.where[i] = key, textSpan{off, n}
	m.seen++
}

// recall finds the time with bits key among the recent ones.
func (m *AckMemo) recall(key uint64) (textSpan, bool) {
	for i, k := range m.recent[:min(m.seen, len(m.recent))] {
		if k == key {
			return m.where[i], true
		}
	}
	return textSpan{}, false
}

// appender is the output under construction, the first number it could
// not represent, and the memo a plan goes through (nil for none).
type appender struct {
	b   []byte
	err error
	m   *AckMemo
}

func (e *appender) line() ([]byte, error) {
	if e.err != nil {
		if e.m != nil {
			e.m.reset()
		}
		return nil, e.err
	}
	return append(e.b, '\n'), nil
}

func (e *appender) plan(p *Plan) {
	e.raw(`{"workflow":`).str(p.Workflow)
	e.raw(`,"generation":`).int(p.Generation)
	e.raw(`,"trigger":`).str(p.Trigger)
	e.raw(`,"makespan":`).float(p.Makespan)
	e.raw(`,"assignments":`)
	switch {
	case p.Assignments == nil:
		e.raw(`null}`)
		if e.m != nil {
			e.m.reset()
		}
		return
	case e.m != nil:
		e.raw(`[`).memoRows(p.Assignments)
		e.raw(`]}`)
		return
	}
	e.raw(`[`)
	for i := range p.Assignments {
		a := &p.Assignments[i]
		if i > 0 {
			e.raw(`,`)
		}
		e.raw(`{"job":`).int(a.Job)
		e.raw(`,"resource":`).int(a.Resource)
		e.raw(`,"start":`).float(a.Start)
		e.raw(`,"finish":`).float(a.Finish)
		e.raw(`}`)
	}
	e.raw(`]}`)
}

// memoRows writes the assignments array's rows through e.m and leaves the
// memo holding them.
func (e *appender) memoRows(rows []Assignment) {
	m, base := e.m, len(e.b)
	m.seen = 0
	m.spans = slices.Grow(m.spans, max(len(rows)-len(m.spans), 0))[:len(rows)]
	for i := range rows {
		a := &rows[i]
		if i > 0 {
			e.raw(`,`)
		}
		at := uint32(len(e.b) - base)
		sb, fb := math.Float64bits(a.Start), math.Float64bits(a.Finish)
		span := rowSpan{at: at}
		if i < len(m.rows) && m.rows[i].Job == a.Job && m.rows[i].Resource == a.Resource {
			old := m.spans[i]
			if math.Float64bits(m.rows[i].Start) == sb && math.Float64bits(m.rows[i].Finish) == fb {
				e.b = append(e.b, m.text[old.at:old.end]...)
				d := at - old.at
				m.spans[i] = rowSpan{at, old.start + d, old.finish + d, old.end + d}
				m.remember(sb, old.start+d, old.finish-old.start-uint32(len(finishKey)))
				m.remember(fb, old.finish+d, old.end-1-old.finish)
				continue
			}
			e.b = append(e.b, m.text[old.at:old.start]...)
		} else {
			e.raw(`{"job":`).int(a.Job)
			e.raw(`,"resource":`).int(a.Resource)
			e.raw(`,"start":`)
		}
		span.start = uint32(len(e.b) - base)
		e.time(sb, base)
		span.finish = uint32(len(e.b)-base) + uint32(len(finishKey))
		e.raw(finishKey).time(fb, base)
		e.raw(`}`)
		span.end = uint32(len(e.b) - base)
		m.spans[i] = span
	}
	m.rows = rows
	m.text = append(m.text[:0], e.b[base:]...)
}

// time writes the float with bits key, copied when the memo recalls it.
// base is where the assignments array's first row starts in the output.
func (e *appender) time(key uint64, base int) {
	at := len(e.b)
	if r, ok := e.m.recall(key); ok {
		e.b = append(e.b, e.b[base+int(r.off):base+int(r.off+r.n)]...)
	} else {
		e.float(math.Float64frombits(key))
	}
	e.m.remember(key, uint32(at-base), uint32(len(e.b)-at))
}

func (e *appender) raw(s string) *appender {
	e.b = append(e.b, s...)
	return e
}

func (e *appender) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

func (e *appender) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float is encoding/json's float64 encoder: shortest round-trip digits,
// exponent form below 1e-6 and from 1e21, two-digit exponents trimmed to
// one (e-07 → e-7).
func (e *appender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("wire: encode: unsupported value: %v", f)
		}
		return
	}
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
}

// str is encoding/json's string encoder. The daemon's own strings —
// workflow ids, trigger names — need no escaping and are copied; anything
// else (a control byte, a quote, HTML's <>&, non-ASCII) is json.Marshal's
// to escape, which a string never fails.
func (e *appender) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}
