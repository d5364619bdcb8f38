package wire

import (
	"encoding/json"
	"fmt"
	"math"
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
// byte for byte.

// AppendPlan appends p as one JSON line. Like json.Marshal it refuses a
// NaN or infinite number; dst's contents are then unspecified.
func AppendPlan(dst []byte, p *Plan) ([]byte, error) {
	e := appender{b: dst}
	e.plan(p)
	return e.line()
}

// AppendReportAck appends a as one JSON line; see AppendPlan.
func AppendReportAck(dst []byte, a *ReportAck) ([]byte, error) {
	e := appender{b: dst}
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

// appender is the output under construction and the first number it could
// not represent.
type appender struct {
	b   []byte
	err error
}

func (e *appender) line() ([]byte, error) {
	if e.err != nil {
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
	if p.Assignments == nil {
		e.raw(`null}`)
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
