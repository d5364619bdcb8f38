package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"aheft"
	"aheft/internal/wire"
)

// tally is what one closed-loop caller measured. Latencies are in
// milliseconds and only cover operations that completed inside the timed
// window; a failed operation has no latency.
type tally struct {
	// attempted counts every operation tried, inside the window or not: an
	// analytic submission followed to done, a live submission up to its
	// validated initial plan, a report batch. failed is how many of those
	// went wrong; a caller stops at its first.
	attempted, failed int
	// ops holds one record per operation that succeeded inside the
	// window: a submission followed to "done", or a report batch acked.
	ops []opRec
	// initial holds POST sent → first 200 from /plan (live) or → 202
	// (analytic).
	initial []float64
	// follow holds the analytic operation's second leg, 202 → end of the
	// event stream.
	follow []float64
	// gains is the check pass's per-workflow makespan gain (fraction).
	gains []float64
	errs  []string
}

// opRec is one completed operation. primary marks the population the
// latency metrics are taken over: every analytic operation, and of the
// live ones the evaluating reports (ack decisions ≥ 1) — the ack
// population is bimodal, and the other mode is reported apart.
type opRec struct {
	at      time.Time // completion
	lat     float64   // ms
	primary bool
}

// latencies returns the latencies of one of the two populations.
func (t *tally) latencies(primary bool) []float64 {
	var out []float64
	for _, r := range t.ops {
		if r.primary == primary {
			out = append(out, r.lat)
		}
	}
	return out
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ops = append(t.ops, o.ops...)
	t.initial = append(t.initial, o.initial...)
	t.follow = append(t.follow, o.follow...)
	t.gains = append(t.gains, o.gains...)
	t.errs = append(t.errs, o.errs...)
}

// caller drives one tenant's workflows over one connection.
type caller struct {
	c  *client
	in *inputs
	// tenant indexes variant.bodies: 0 is the check tenant, 1+i client i.
	tenant int
	// deadline ends the timed window; zero means unbounded (check pass,
	// populate).
	deadline time.Time
	// verify turns on the check pass's full output verification.
	verify bool
	t      tally
	iter   int
}

func (cl *caller) inWindow(now time.Time) bool {
	return cl.deadline.IsZero() || !now.After(cl.deadline)
}

// truthFor seeds one enactment's noise and churn from the run seed, the
// tenant and the enactment's ordinal, so a rerun draws the same grid.
func (cl *caller) truthFor(v *variant) *truth {
	sp := cl.in.spec
	return drawTruth(v, sp.noise, sp.churn, rngFor(cl.in.seed, fmt.Sprintf("truth-%s-t%d", sp.name, cl.tenant), cl.iter))
}

func (cl *caller) submit(v *variant) (string, error) {
	code, body, err := cl.c.do("POST", "/v1/workflows", v.bodies[cl.tenant])
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	if code != 202 {
		return "", fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	var sub wire.Submitted
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return "", fmt.Errorf("submit: bad response %q", body)
	}
	return sub.ID, nil
}

// analyticOp is submit_analytic's operation: POST, then follow the event
// stream to "done" on the same connection. Its two legs are kept too: the
// submission ack is the nearest an analytic run has to an initial plan,
// the stream follow its second kind of round trip.
func (cl *caller) analyticOp(v *variant) {
	cl.iter++
	cl.t.attempted++
	t0 := time.Now()
	id, err := cl.submit(v)
	tAck := time.Now()
	if err != nil {
		cl.t.fail("%s: %v", v.name, err)
		return
	}
	code, stream, err := cl.c.do("GET", "/v1/workflows/"+id+"/events", nil)
	t1 := time.Now()
	if err != nil || code != 200 {
		cl.t.fail("%s %s: events: HTTP %d, %v", v.name, id, code, err)
		return
	}
	if !bytes.Contains(stream, []byte(`"kind":"done"`)) {
		cl.t.fail("%s %s: stream ended without done", v.name, id)
		return
	}
	if cl.verify {
		gain, err := cl.verifyAnalytic(v, id, append([]byte(nil), stream...))
		if err != nil {
			cl.t.fail("%s %s: %v", v.name, id, err)
			return
		}
		cl.t.gains = append(cl.t.gains, gain)
	}
	if cl.inWindow(t1) {
		cl.t.ops = append(cl.t.ops, opRec{at: t1, lat: ms(t1.Sub(t0)), primary: true})
		cl.t.initial = append(cl.t.initial, ms(tAck.Sub(t0)))
		cl.t.follow = append(cl.t.follow, ms(t1.Sub(tAck)))
	}
}

// verifyAnalytic holds one analytic result to the in-process engine: the
// event stream is dense and ends in done, and the daemon's status equals
// aheft.Run on the same scenario, decision for decision.
func (cl *caller) verifyAnalytic(v *variant, id string, stream []byte) (float64, error) {
	events, err := parseSSE(stream)
	if err != nil {
		return 0, err
	}
	for i, ev := range events {
		if ev.Seq != i {
			return 0, fmt.Errorf("event stream has seq %d at position %d", ev.Seq, i)
		}
	}
	if len(events) == 0 || events[len(events)-1].Kind != "done" {
		return 0, fmt.Errorf("event stream does not end in done")
	}
	code, body, err := cl.c.do("GET", "/v1/workflows/"+id, nil)
	if err != nil || code != 200 {
		return 0, fmt.Errorf("status: HTTP %d, %v", code, err)
	}
	var st wire.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("status: %w", err)
	}
	want, err := aheft.Run(context.Background(), v.sc.Graph, v.sc.Estimator(), v.sc.Pool, aheft.WithPolicy("aheft"))
	if err != nil {
		return 0, fmt.Errorf("in-process run: %w", err)
	}
	switch {
	case st.State != "done":
		return 0, fmt.Errorf("status is %q", st.State)
	case st.Makespan != want.Makespan || st.InitialMakespan != want.InitialMakespan:
		return 0, fmt.Errorf("daemon makespan %g (initial %g), in-process %g (initial %g)",
			st.Makespan, st.InitialMakespan, want.Makespan, want.InitialMakespan)
	case events[len(events)-1].Makespan != want.Makespan:
		return 0, fmt.Errorf("done event makespan %g, in-process %g", events[len(events)-1].Makespan, want.Makespan)
	case len(st.Decisions) != len(want.Decisions):
		return 0, fmt.Errorf("daemon made %d decisions, in-process %d", len(st.Decisions), len(want.Decisions))
	}
	for i, d := range want.Decisions {
		got := st.Decisions[i]
		if got.Clock != d.Clock || got.NewMakespan != d.NewMakespan || got.Adopted != d.Adopted {
			return 0, fmt.Errorf("decision %d: daemon %+v, in-process %+v", i, got, d)
		}
	}
	return st.Improvement, nil
}

// parseSSE decodes a server-sent event stream of wire.Event documents.
func parseSSE(stream []byte) ([]wire.Event, error) {
	var out []wire.Event
	for _, block := range bytes.Split(stream, []byte("\n\n")) {
		for _, line := range bytes.Split(block, []byte("\n")) {
			data, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok {
				continue
			}
			var ev wire.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return nil, fmt.Errorf("event stream: %w", err)
			}
			out = append(out, ev)
		}
	}
	return out, nil
}

// liveRun is one live workflow in flight: the daemon's ID, the enactor
// following its plan, and the last plan document received.
type liveRun struct {
	v    *variant
	id   string
	en   *enactor
	plan *wire.Plan
	// static is the never-reschedule makespan under the same truth
	// (check pass only).
	static float64
}

// openLive submits a variant in live mode and waits for its initial plan
// with back-to-back GETs on the same connection.
func (cl *caller) openLive(v *variant) (*liveRun, bool) {
	cl.iter++
	cl.t.attempted++
	t0 := time.Now()
	id, err := cl.submit(v)
	if err != nil {
		cl.t.fail("%s: %v", v.name, err)
		return nil, false
	}
	var plan wire.Plan
	for {
		code, body, err := cl.c.do("GET", "/v1/workflows/"+id+"/plan", nil)
		if err == nil && code == 409 {
			continue // accepted, not yet planned
		}
		if err != nil || code != 200 {
			cl.t.fail("%s %s: plan: HTTP %d, %v", v.name, id, code, err)
			return nil, false
		}
		t1 := time.Now()
		if err := json.Unmarshal(body, &plan); err != nil {
			cl.t.fail("%s %s: plan: %v", v.name, id, err)
			return nil, false
		}
		if cl.inWindow(t1) {
			cl.t.initial = append(cl.t.initial, ms(t1.Sub(t0)))
		}
		break
	}
	if err := validatePlan(v, &plan); err != nil {
		cl.t.fail("%s %s: initial plan: %v", v.name, id, err)
		return nil, false
	}
	tr := cl.truthFor(v)
	run := &liveRun{v: v, id: id, plan: &plan, en: newEnactor(v, tr, &plan)}
	if cl.verify {
		run.static = enactStatic(v, tr, &plan)
	}
	return run, true
}

// report POSTs one batch and folds the ack in: validate and adopt any new
// plan, classify the latency. timed says the round trip is an operation
// of the window (the fast-forward batch is not).
func (cl *caller) report(run *liveRun, batch []wire.ReportEvent, timed bool) (*wire.ReportAck, bool) {
	cl.t.attempted++
	body, err := wire.EncodeReport(&wire.Report{Events: batch})
	if err != nil {
		cl.t.fail("%s %s: encode report: %v", run.v.name, run.id, err)
		return nil, false
	}
	t0 := time.Now()
	code, resp, err := cl.c.do("POST", "/v1/workflows/"+run.id+"/report", body)
	t1 := time.Now()
	if err != nil || code != 200 {
		cl.t.fail("%s %s: report: HTTP %d, %v: %s", run.v.name, run.id, code, err, bytes.TrimSpace(resp))
		return nil, false
	}
	var ack wire.ReportAck
	if err := json.Unmarshal(resp, &ack); err != nil {
		cl.t.fail("%s %s: ack: %v", run.v.name, run.id, err)
		return nil, false
	}
	if ack.Applied != len(batch) && !ack.Done {
		cl.t.fail("%s %s: ack applied %d of %d events", run.v.name, run.id, ack.Applied, len(batch))
		return nil, false
	}
	if ack.Plan != nil {
		if err := validatePlan(run.v, ack.Plan); err != nil {
			cl.t.fail("%s %s: plan generation %d: %v", run.v.name, run.id, ack.Plan.Generation, err)
			return nil, false
		}
		run.plan = ack.Plan
		if !ack.Done {
			run.en.adopt(ack.Plan)
		}
	} else if ack.Rescheduled {
		cl.t.fail("%s %s: ack says rescheduled but carries no plan", run.v.name, run.id)
		return nil, false
	}
	if timed && cl.inWindow(t1) {
		cl.t.ops = append(cl.t.ops, opRec{at: t1, lat: ms(t1.Sub(t0)), primary: ack.Decisions >= 1})
	}
	return &ack, true
}

// enact drives a live run report by report. It stops when the workflow
// completes, when stop says so (leaving the workflow live), or — past the
// window or past maxReports — fast-forwards the rest in one batch.
func (cl *caller) enact(run *liveRun, maxReports int, stop func(*enactor) bool) bool {
	for n := 0; ; n++ {
		if stop != nil && stop(run.en) {
			return true
		}
		var batch []wire.ReportEvent
		forward := !cl.inWindow(time.Now()) || (maxReports > 0 && n >= maxReports)
		if forward {
			batch = run.en.rest()
		} else {
			batch = run.en.next()
		}
		if batch == nil {
			cl.t.fail("%s %s: enactor finished but the daemon never said done", run.v.name, run.id)
			return false
		}
		ack, ok := cl.report(run, batch, !forward)
		if !ok {
			return false
		}
		if !ack.Done {
			if forward {
				cl.t.fail("%s %s: not done after the final batch", run.v.name, run.id)
				return false
			}
			continue
		}
		if !run.en.done() {
			cl.t.fail("%s %s: daemon says done with %d of %d jobs enacted", run.v.name, run.id, run.en.nFinished, run.en.n)
			return false
		}
		if mk := run.en.makespan(); math.Abs(ack.Makespan-mk) > timeEps(mk) {
			cl.t.fail("%s %s: daemon makespan %g, enactor %g", run.v.name, run.id, ack.Makespan, mk)
			return false
		}
		if cl.verify {
			return cl.verifyLive(run, forward)
		}
		return true
	}
}

// verifyLive checks the terminal status against the enactor and, for a
// fully enacted run, records what adaptivity bought over the static
// baseline.
func (cl *caller) verifyLive(run *liveRun, forwarded bool) bool {
	code, body, err := cl.c.do("GET", "/v1/workflows/"+run.id, nil)
	if err != nil || code != 200 {
		cl.t.fail("%s %s: status: HTTP %d, %v", run.v.name, run.id, code, err)
		return false
	}
	var st wire.Status
	if err := json.Unmarshal(body, &st); err != nil {
		cl.t.fail("%s %s: status: %v", run.v.name, run.id, err)
		return false
	}
	mk := run.en.makespan()
	if st.State != "done" || math.Abs(st.Makespan-mk) > timeEps(mk) {
		cl.t.fail("%s %s: status %q makespan %g, enactor %g", run.v.name, run.id, st.State, st.Makespan, mk)
		return false
	}
	if !forwarded && run.static > 0 {
		cl.t.gains = append(cl.t.gains, (run.static-mk)/run.static)
	}
	return true
}

// liveWorkflow is one full cycle of a live workload: submit, plan, enact.
func (cl *caller) liveWorkflow(v *variant, maxReports int) bool {
	run, ok := cl.openLive(v)
	if !ok {
		return false
	}
	return cl.enact(run, maxReports, nil)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
