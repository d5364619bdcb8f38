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
// over — what dst already held. m, when not nil, is the memo both encode
// through: the ack first, then its plan again.
func checkAppendParity(t *testing.T, ack *ReportAck, m *AckMemo) {
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
	got, err := AppendReportAck([]byte("x"), ack, m)
	check("ack", got, err, ack)
	if ack.Plan != nil {
		got, err = AppendPlan([]byte("x"), ack.Plan, m)
		check("plan", got, err, ack.Plan)
	}
}

// checkMemoChain encodes plans in order through one memo, each as an
// adopting ack and as a plan, and holds every encode to json.Marshal.
func checkMemoChain(t *testing.T, plans ...*Plan) {
	t.Helper()
	var m AckMemo
	for _, p := range plans {
		checkAppendParity(t, &ReportAck{Workflow: p.Workflow, Rescheduled: true, Generation: p.Generation, Plan: p}, &m)
	}
}

// successor is the next generation of rows as edits makes it: each byte
// keeps, re-times, flips to the other-signed zero, moves, drops or
// duplicates the row at its position.
func successor(rows []Assignment, edits []byte) []Assignment {
	out := append([]Assignment(nil), rows...)
	for k, op := range edits {
		if len(out) == 0 {
			out = append(out, Assignment{Job: k})
		}
		i := k % len(out)
		a := &out[i]
		switch op % 7 {
		case 1:
			a.Start = out[(i+1)%len(out)].Finish
		case 2:
			a.Finish = math.Nextafter(a.Finish, math.Inf(1))
		case 3:
			a.Start, a.Finish = math.Copysign(0, -math.Copysign(1, a.Start)), math.Copysign(0, -math.Copysign(1, a.Finish))
		case 4:
			a.Resource++
		case 5:
			out = append(out[:i], out[i+1:]...)
		case 6:
			out = append(out, *a)
		}
	}
	return out
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
		checkAppendParity(t, &ReportAck{Workflow: s, Trigger: s, Plan: &Plan{Workflow: s, Trigger: s}}, nil)
	}
	for _, f := range appendParityFloats {
		checkAppendParity(t, &ReportAck{Makespan: f, Plan: &Plan{
			Makespan: -f, Assignments: []Assignment{{Job: 1, Resource: 2, Start: f, Finish: f + 1}},
		}}, nil)
	}
	// nil vs empty assignments, omitempty fields at their zero values,
	// extreme integers.
	checkAppendParity(t, &ReportAck{}, nil)
	checkAppendParity(t, &ReportAck{Plan: &Plan{}}, nil)
	checkAppendParity(t, &ReportAck{Plan: &Plan{Assignments: []Assignment{}}}, nil)
	checkAppendParity(t, &ReportAck{
		Applied: math.MaxInt, Decisions: math.MinInt, Generation: -1, Rescheduled: true, Done: true,
		Plan: &Plan{Generation: math.MinInt, Assignments: []Assignment{{Job: math.MaxInt, Resource: math.MinInt}, {}}},
	}, nil)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAppendParity(t, &ReportAck{Makespan: bad}, nil)
		checkAppendParity(t, &ReportAck{Plan: &Plan{Makespan: bad}}, nil)
		checkAppendParity(t, &ReportAck{Plan: &Plan{Assignments: []Assignment{{Finish: bad}}}}, nil)
		if _, err := AppendPlan(nil, &Plan{Assignments: []Assignment{{Start: bad}}}, nil); err == nil {
			t.Errorf("AppendPlan accepted start %v", bad)
		}
	}
	// Through a memo: every parity float as a start and a finish, then the
	// same rows re-timed onto each other's times; a row unchanged but for
	// the sign of a zero (equal as numbers, not as text); and a refused plan
	// between two valid ones.
	var rows []Assignment
	for i, f := range appendParityFloats {
		rows = append(rows, Assignment{Job: i, Resource: i % 3, Start: f, Finish: -f})
	}
	checkMemoChain(t, &Plan{Assignments: rows}, &Plan{Assignments: successor(rows, []byte{1, 2, 4, 1, 0, 1, 6, 1})}, &Plan{Assignments: rows})
	negZero := math.Copysign(0, -1)
	zero := []Assignment{{Job: 0, Resource: 1, Start: 0, Finish: 5}, {Job: 1, Resource: 1, Start: 5, Finish: negZero}}
	checkMemoChain(t, &Plan{Assignments: zero}, &Plan{Assignments: []Assignment{{Job: 0, Resource: 1, Start: negZero, Finish: 5}, {Job: 1, Resource: 1, Start: 5, Finish: 0}}}, &Plan{Assignments: zero})
	checkMemoChain(t, &Plan{Assignments: zero}, &Plan{Assignments: []Assignment{zero[0], {Job: 1, Finish: math.NaN()}}}, &Plan{Assignments: zero})
}

// FuzzAppendAckParity: for arbitrary acks and plans the appenders' bytes
// are json.Marshal's, and they refuse exactly what it refuses (a
// non-finite number). planShape picks no plan / nil / empty / decoded
// assignments; raw is cut into (job, resource, start, finish) records with
// the floats taken bit for bit, so NaNs, infinities, subnormals and -0 all
// occur. The plan is then encoded again through one memo, followed by the
// successor edits makes of it and by itself once more.
func FuzzAppendAckParity(f *testing.F) {
	rec := func(job, res int64, start, finish float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(job))
		b = binary.LittleEndian.AppendUint64(b, uint64(res))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(start))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(finish))
	}
	for i, s := range appendParityStrings {
		fl := appendParityFloats[i%len(appendParityFloats)]
		f.Add(s, s, i, -i, i%3 == 0, i%2 == 0, fl, uint8(i), append(rec(int64(i), 3, fl, fl+1), rec(0, 0, -fl, 1e21)...), []byte{byte(i), 1, 3})
	}
	f.Add("wf", "", 1, 0, false, false, 0.0, uint8(0), []byte(nil), []byte(nil))
	f.Add("wf", "arrival", 2, 1, true, true, math.Inf(1), uint8(3), rec(1, 1, math.NaN(), 0), []byte{2})
	f.Add("wf", "variance", 3, 2, true, false, 7.5, uint8(3), append(rec(0, 1, 0, 2.5), rec(1, 1, 2.5, 1e-7)...), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, workflow, trigger string, applied, generation int, rescheduled, done bool, makespan float64, planShape uint8, raw, edits []byte) {
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
		checkAppendParity(t, ack, nil)
		if ack.Plan != nil {
			next := *ack.Plan
			if next.Assignments != nil {
				next.Assignments = successor(next.Assignments, edits)
			}
			checkMemoChain(t, ack.Plan, &next, ack.Plan)
		}
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

// benchNext is the adopting ack that follows prev in a replan of the mix
// a data-aware daemon's adoptions show (benchmark/'s live_data_staging):
// 49 rows in 100 unchanged, 15 re-timed on their resource and 36 on
// another, each re-timed row starting when the row two up finishes and
// lasting d — so about 75 % of the times are ones the previous plan or
// this one already wrote.
func benchNext(prev *ReportAck, d float64) *ReportAck {
	p := *prev.Plan
	p.Generation++
	p.Assignments = append([]Assignment(nil), p.Assignments...)
	for j := range p.Assignments {
		if a, k := &p.Assignments[j], j%100; k >= 49 && j >= 2 {
			a.Start = p.Assignments[j-2].Finish
			a.Finish = a.Start + d
			if k >= 64 {
				a.Resource = (a.Resource + 1) % 4
			}
		}
	}
	next := *prev
	next.Generation, next.Plan = p.Generation, &p
	return &next
}

// benchGenerations is two successive adopting acks of a 1026-job plan, each
// benchNext's successor of the one before.
func benchGenerations() [2]*ReportAck {
	b := benchNext(benchAck(1026), 2.718281828459045)
	return [2]*ReportAck{b, benchNext(b, 3.141592653589793)}
}

// TestAppendAckDoesNotAllocate holds what benchcmp cannot gate: with a
// reused buffer — the daemon pools them — encoding an adopting ack
// allocates nothing, with no memo and with a warmed one alternating
// between two generations.
func TestAppendAckDoesNotAllocate(t *testing.T) {
	ack := benchAck(1026)
	buf, err := AppendReportAck(nil, ack, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { buf, _ = AppendReportAck(buf[:0], ack, nil) }); n != 0 {
		t.Errorf("AppendReportAck into a reused buffer: %v allocs/op, want 0", n)
	}
	var m AckMemo
	gens := benchGenerations()
	for _, a := range gens {
		buf, _ = AppendReportAck(buf[:0], a, &m)
	}
	i := 0
	if n := testing.AllocsPerRun(20, func() { buf, _ = AppendReportAck(buf[:0], gens[i&1], &m); i++ }); n != 0 {
		t.Errorf("AppendReportAck through a warmed memo: %v allocs/op, want 0", n)
	}
}
