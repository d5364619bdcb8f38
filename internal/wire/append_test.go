package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// marshalLine is what the appenders must equal: json.Marshal plus the
// newline json.Encoder ends a document with.
func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkAppendParity holds both appenders to json.Marshal on one ack (and
// the plan it carries): same refusal, same bytes, and appended after — not
// over — what dst already held.
func checkAppendParity(t *testing.T, ack *ReportAck) {
	t.Helper()
	check := func(what string, got []byte, gotErr error, v any) {
		t.Helper()
		want, wantErr := marshalLine(v)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: appender error %v, json.Marshal error %v", what, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
		}
	}
	got, err := AppendReportAck([]byte("x"), ack)
	check("ack", got, err, ack)
	if ack.Plan != nil {
		got, err = AppendPlan([]byte("x"), ack.Plan)
		check("plan", got, err, ack.Plan)
	}
}

var appendParityStrings = []string{
	"", "wf-000001", "variance", `quote " backslash \ slash /`, "<script>&amp;</script>",
	"\x00\x01\b\t\n\f\r\x1f\x7f", "caf\u00e9 \u65e5\u672c \U0001F600", "line\u2028para\u2029sep",
	"bad \xff\xfe utf8", "truncated \xe2\x82", "surrogate \xed\xa0\x80",
}

var appendParityFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 12.5, 80, 76.00000000000001, 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 1.5e300,
	-1e-9, 1e-10, 1e100, 123456789.123456789, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.MaxFloat64, 0.1 + 0.2, 1.0 / 3,
}

func TestAppendAckParity(t *testing.T) {
	for _, s := range appendParityStrings {
		checkAppendParity(t, &ReportAck{Workflow: s, Trigger: s, Plan: &Plan{Workflow: s, Trigger: s}})
	}
	for _, f := range appendParityFloats {
		checkAppendParity(t, &ReportAck{Makespan: f, Plan: &Plan{
			Makespan: -f, Assignments: []Assignment{{Job: 1, Resource: 2, Start: f, Finish: f + 1}},
		}})
	}
	// nil vs empty assignments, omitempty fields at their zero values,
	// extreme integers.
	checkAppendParity(t, &ReportAck{})
	checkAppendParity(t, &ReportAck{Plan: &Plan{}})
	checkAppendParity(t, &ReportAck{Plan: &Plan{Assignments: []Assignment{}}})
	checkAppendParity(t, &ReportAck{
		Applied: math.MaxInt, Decisions: math.MinInt, Generation: -1, Rescheduled: true, Done: true,
		Plan: &Plan{Generation: math.MinInt, Assignments: []Assignment{{Job: math.MaxInt, Resource: math.MinInt}, {}}},
	})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAppendParity(t, &ReportAck{Makespan: bad})
		checkAppendParity(t, &ReportAck{Plan: &Plan{Makespan: bad}})
		checkAppendParity(t, &ReportAck{Plan: &Plan{Assignments: []Assignment{{Finish: bad}}}})
		if _, err := AppendPlan(nil, &Plan{Assignments: []Assignment{{Start: bad}}}); err == nil {
			t.Errorf("AppendPlan accepted start %v", bad)
		}
	}
}

// FuzzAppendAckParity: for arbitrary acks and plans the appenders' bytes
// are json.Marshal's, and they refuse exactly what it refuses (a
// non-finite number). planShape picks no plan / nil / empty / decoded
// assignments; raw is cut into (job, resource, start, finish) records with
// the floats taken bit for bit, so NaNs, infinities, subnormals and -0 all
// occur.
func FuzzAppendAckParity(f *testing.F) {
	rec := func(job, res int64, start, finish float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(job))
		b = binary.LittleEndian.AppendUint64(b, uint64(res))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(start))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(finish))
	}
	for i, s := range appendParityStrings {
		fl := appendParityFloats[i%len(appendParityFloats)]
		f.Add(s, s, i, -i, i%3 == 0, i%2 == 0, fl, uint8(i), append(rec(int64(i), 3, fl, fl+1), rec(0, 0, -fl, 1e21)...))
	}
	f.Add("wf", "", 1, 0, false, false, 0.0, uint8(0), []byte(nil))
	f.Add("wf", "arrival", 2, 1, true, true, math.Inf(1), uint8(3), rec(1, 1, math.NaN(), 0))
	f.Fuzz(func(t *testing.T, workflow, trigger string, applied, generation int, rescheduled, done bool, makespan float64, planShape uint8, raw []byte) {
		ack := &ReportAck{
			Workflow: workflow, Applied: applied, Decisions: applied ^ generation, Rescheduled: rescheduled,
			Trigger: trigger, Generation: generation, Done: done, Makespan: makespan,
		}
		if planShape%4 != 0 {
			ack.Plan = &Plan{Workflow: workflow, Generation: generation, Trigger: trigger, Makespan: -makespan}
		}
		switch planShape % 4 {
		case 2:
			ack.Plan.Assignments = []Assignment{}
		case 3:
			for ; len(raw) >= 32; raw = raw[32:] {
				ack.Plan.Assignments = append(ack.Plan.Assignments, Assignment{
					Job:      int(int64(binary.LittleEndian.Uint64(raw))),
					Resource: int(int64(binary.LittleEndian.Uint64(raw[8:]))),
					Start:    math.Float64frombits(binary.LittleEndian.Uint64(raw[16:])),
					Finish:   math.Float64frombits(binary.LittleEndian.Uint64(raw[24:])),
				})
			}
		}
		checkAppendParity(t, ack)
	})
}

// benchAck is an adopting ack carrying a plan of n assignments with the
// seventeen-digit times a real replan produces.
func benchAck(n int) *ReportAck {
	p := &Plan{Workflow: "wf-000042", Generation: 7, Trigger: "variance", Makespan: 4096.123456789012}
	for j := 0; j < n; j++ {
		start := float64(j) * 1.0000000000000123
		p.Assignments = append(p.Assignments, Assignment{Job: j, Resource: j % 4, Start: start, Finish: start + 3.3333333333333335})
	}
	return &ReportAck{Workflow: p.Workflow, Applied: 3, Decisions: 1, Rescheduled: true, Trigger: p.Trigger, Generation: 7, Plan: p}
}

// TestAppendAckDoesNotAllocate holds what benchcmp cannot gate: with a
// reused buffer — the daemon pools them — encoding an adopting ack
// allocates nothing.
func TestAppendAckDoesNotAllocate(t *testing.T) {
	ack := benchAck(1026)
	buf, err := AppendReportAck(nil, ack)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { buf, _ = AppendReportAck(buf[:0], ack) }); n != 0 {
		t.Errorf("AppendReportAck into a reused buffer: %v allocs/op, want 0", n)
	}
}
