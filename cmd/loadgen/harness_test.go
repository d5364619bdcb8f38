package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aheft/internal/drive"
	"aheft/internal/server"
)

// TestGates: one row per CI gate, once met and once violated. The
// evaluator is a pure function of the report, so every row is a literal.
func TestGates(t *testing.T) {
	classes := func(adaptive, baseline float64, variance, contention int) []ClassReport {
		return []ClassReport{
			{Name: "blast", Completed: 3, AdaptiveMeanMakespan: adaptive, BaselineMeanMakespan: baseline,
				ByTrigger: map[string]int{"variance": variance, "contention": contention}},
			{Name: "wien2k", Completed: 1, AdaptiveMeanMakespan: 90, BaselineMeanMakespan: 100,
				ByTrigger: map[string]int{"variance": 9, "contention": 9}},
			{Name: "never-drawn", ByTrigger: map[string]int{}}, // nothing to prove
		}
	}
	admission := func(fast, upgraded uint64, fastP99, fullP99 float64) server.AdmissionDoc {
		return server.AdmissionDoc{
			FastPathByClass: map[string]uint64{"low": fast}, UpgradedByClass: map[string]uint64{"low": upgraded},
			FastInitialMs: server.LatencyMs{Count: fast, P99: fastP99}, FullInitialMs: server.LatencyMs{Count: 9, P99: fullP99},
		}
	}
	drive := Report{Mode: "drive", Unit: "workflows", Adaptive: "adaptive", Baseline: "static", Completed: 4}
	shared := Report{Mode: "shared", Unit: "rounds", Adaptive: "aware", Baseline: "oblivious", Completed: 4}
	data := Report{Mode: "data", Unit: "rounds", Adaptive: "aware", Baseline: "oblivious", Completed: 4}
	over := Report{Mode: "overload", Unit: "rounds", Completed: 4}
	with := func(rep Report, edit func(*Report)) *Report { edit(&rep); return &rep }

	for _, tc := range []struct {
		name string
		g    gates
		ok   *Report
		bad  *Report
		want string // the violation, as the log words it
	}{
		{"nothing completed", gates{completed: true},
			&Report{Mode: "load", Unit: "workflows", Completed: 1},
			&Report{Mode: "load", Unit: "workflows"}, "nothing completed"},
		{"failed units", gates{completed: true}, &drive,
			with(drive, func(r *Report) { r.Failed = 2 }), "drive: 2 workflows failed"},
		{"-require-zero-drops", gates{zeroDrops: true}, &drive,
			with(drive, func(r *Report) { r.ServerMetrics.EventsDropped = 7 }), "daemon dropped 7 events"},
		{"-require-inflight", gates{minInflight: 500},
			with(drive, func(r *Report) { r.ServerMetrics.InflightPeak = 500 }),
			with(drive, func(r *Report) { r.ServerMetrics.InflightPeak = 499 }), "inflight peak 499 below required 500"},
		{"-require-variance-reschedules", gates{trigger: "variance", triggerLabel: "variance-triggered", minTriggered: 2},
			with(drive, func(r *Report) { r.Classes = classes(90, 100, 2, 0) }),
			with(drive, func(r *Report) { r.Classes = classes(90, 100, 1, 9) }),
			"class blast saw 1 variance-triggered reschedules, require 2"},
		{"-require-beat-static", gates{beatPerClass: true},
			with(drive, func(r *Report) { r.Classes = classes(100, 100, 0, 0) }),
			with(drive, func(r *Report) { r.Classes = classes(100.1, 100, 0, 0) }),
			"class blast adaptive mean 100.1 worse than static 100.0"},
		{"-require-beat-oblivious per class", gates{beatPerClass: true},
			with(shared, func(r *Report) { r.Classes = classes(90, 100, 0, 0) }),
			with(shared, func(r *Report) { r.Classes = classes(120, 100, 0, 0) }),
			"class blast aware mean 120.0 worse than oblivious 100.0"},
		{"-require-beat-oblivious overall", gates{beatOverall: true},
			with(data, func(r *Report) { r.Classes = classes(101, 100, 0, 0) }), // 3·101+90 < 3·100+100
			with(data, func(r *Report) { r.Classes = classes(104, 100, 0, 0) }), // 3·104+90 ≥ 400
			"data: aware mean 100.5 does not beat oblivious mean 100.0"},
		{"-require-contention-reschedules", gates{trigger: "contention", triggerLabel: "cross-workflow (contention)", minTriggered: 1},
			with(shared, func(r *Report) { r.Classes = classes(90, 100, 0, 1) }),
			with(shared, func(r *Report) { r.Classes = classes(90, 100, 5, 0) }),
			"class blast saw 0 cross-workflow (contention) reschedules, require 1"},
		{"leaked rounds", gates{noLeaks: true}, &shared,
			with(shared, func(r *Report) { r.LeakedRounds = 1 }), "shared: 1 rounds leaked reservations"},
		{"reservations held at the end", gates{noLeaks: true}, &data,
			with(data, func(r *Report) { r.ServerMetrics.TransferReservations = 3 }),
			"data: daemon still holds 0 compute + 3 transfer reservations after all rounds"},
		{"daemon-side failures", gates{serverFailed: true}, &data,
			with(data, func(r *Report) { r.ServerMetrics.Failed = 1 }), "data: daemon reports 1 failed workflows"},
		{"data zero-claim rounds", gates{claims: true},
			with(data, func(r *Report) { r.TransferClaims = 1 }), &data,
			"data: no round staged a single transfer claim"},
		{"-overload-bound", gates{degradeBound: 3},
			with(over, func(r *Report) { r.Overload = &OverloadStats{CalibP99: 100, OverP99: 300, DegradeFactor: 3} }),
			with(over, func(r *Report) { r.Overload = &OverloadStats{CalibP99: 100, OverP99: 301, DegradeFactor: 3.01} }),
			"overload: victim p99 makespan degraded 3.01× under the flood, bound 3.0×"},
		{"overload phase without victims", gates{degradeBound: 3},
			with(over, func(r *Report) { r.Overload = &OverloadStats{CalibP99: 100, OverP99: 100, DegradeFactor: 1} }),
			with(over, func(r *Report) { r.Overload = &OverloadStats{CalibP99: 100} }),
			"overload: a phase produced no victim makespan"},
		{"overload fast path", gates{twoSpeed: true},
			with(over, func(r *Report) { r.ServerMetrics.Admission = admission(2, 1, 1, 5) }),
			with(over, func(r *Report) { r.ServerMetrics.Admission = admission(0, 0, 0, 5) }),
			"overload: flood never tripped the fast path"},
		{"overload upgrade", gates{twoSpeed: true},
			with(over, func(r *Report) { r.ServerMetrics.Admission = admission(2, 2, 1, 5) }),
			with(over, func(r *Report) { r.ServerMetrics.Admission = admission(2, 0, 1, 5) }),
			"overload: no fast-path admission was upgraded to a full plan"},
		{"overload fast plan is fast", gates{twoSpeed: true},
			with(over, func(r *Report) { r.ServerMetrics.Admission = admission(2, 2, 4.99, 5) }),
			with(over, func(r *Report) { r.ServerMetrics.Admission = admission(2, 2, 5, 5) }),
			"overload: fast-path initial-plan p99 5.00ms not below full-path 5.00ms"},
		{"chaos duplicate replays", gates{duplicates: true},
			&Report{Mode: "chaos", Chaos: &ChaosStats{DuplicatesAcked: 36}, ServerMetrics: server.MetricsDoc{ReportsDuplicate: 36}},
			&Report{Mode: "chaos", Chaos: &ChaosStats{DuplicatesAcked: 36}, ServerMetrics: server.MetricsDoc{ReportsDuplicate: 35}},
			"chaos: reports_duplicate=35, want >= 36"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := violations(tc.ok, tc.g); len(got) != 0 {
				t.Errorf("gate met, yet violated: %q", got)
			}
			got := violations(tc.bad, tc.g)
			if len(got) != 1 || !strings.HasPrefix(got[0], tc.want) {
				t.Errorf("violations = %q, want one starting %q", got, tc.want)
			}
			if got := violations(tc.bad, gates{}); len(got) != 0 {
				t.Errorf("no gate required, yet violated: %q", got)
			}
		})
	}
}

// TestModeGates: every row of the table arms the gates its CI smoke job
// relies on, from the flags that job sets.
func TestModeGates(t *testing.T) {
	defer resetFlags()
	*requireZeroDrops, *requireBeatStatic, *requireBeatOblivious = true, true, true
	*requireInflight, *requireVarResched, *requireContention, *overloadBound = 500, 1, 2, 2.5
	want := map[string]gates{
		"load":     {completed: true, zeroDrops: true, minInflight: 500},
		"drive":    {completed: true, zeroDrops: true, minInflight: 500, beatPerClass: true, trigger: "variance", triggerLabel: "variance-triggered", minTriggered: 1},
		"shared":   {completed: true, noLeaks: true, zeroDrops: true, beatPerClass: true, trigger: "contention", triggerLabel: "cross-workflow (contention)", minTriggered: 2},
		"data":     {completed: true, noLeaks: true, serverFailed: true, claims: true, beatOverall: true},
		"overload": {completed: true, noLeaks: true, degradeBound: 2.5, twoSpeed: true},
		"chaos":    {serverFailed: true, duplicates: true},
	}
	for _, m := range modes {
		if got := m.gates(); got != want[m.name] {
			t.Errorf("%s gates = %+v, want %+v", m.name, got, want[m.name])
		}
		delete(want, m.name)
	}
	if len(want) != 0 {
		t.Errorf("modes missing from the table: %v", want)
	}
}

// TestArrive drives the one arrival loop with a fake unit: the in-flight
// cap holds, arrivals that hit it are counted as stalls, building stops at
// the deadline, and the call returns only after the last straggler.
func TestArrive(t *testing.T) {
	var inflight, peak, built, finished atomic.Int32
	unit := func(d time.Duration) func(int) func() {
		return func(seq int) func() {
			if int(built.Add(1)) != seq+1 {
				t.Errorf("build called out of order: seq %d after %d builds", seq, built.Load()-1)
			}
			return func() {
				n := inflight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(d)
				inflight.Add(-1)
				finished.Add(1)
			}
		}
	}
	p := pace{duration: 150 * time.Millisecond, inflight: 3}
	units, stalls, window, total := p.arrive(unit(40 * time.Millisecond))
	if peak.Load() != 3 {
		t.Errorf("peak in flight = %d, want the cap of 3 reached and never passed", peak.Load())
	}
	if int(finished.Load()) != units || int(built.Load()) != units || inflight.Load() != 0 {
		t.Errorf("arrive returned with %d built, %d finished of %d units, %d still in flight", built.Load(), finished.Load(), units, inflight.Load())
	}
	// An uncapped rate against 40 ms units: three start at once, and every
	// later wave begins with an arrival that found the cap full.
	if units < 6 || stalls < 2 || stalls > units {
		t.Errorf("units = %d, stalls = %d: want at least three waves of three and a stall per later wave", units, stalls)
	}
	if window < p.duration || window > p.duration+250*time.Millisecond || total < window {
		t.Errorf("window %v, total %v: want the loop to stop at the %v deadline and total to cover the stragglers", window, total, p.duration)
	}

	// A paced loop below capacity never stalls and submits rate × duration.
	built.Store(0)
	units, stalls, _, _ = pace{duration: 100 * time.Millisecond, rate: 100, inflight: 50}.arrive(unit(time.Millisecond))
	if stalls != 0 || units < 5 || units > 11 {
		t.Errorf("paced: %d units, %d stalls; want about 10 and none", units, stalls)
	}

	// One-at-a-time rounds: sequential, never counted as stalls, and the
	// unit bounds win over the clock in both directions.
	built.Store(0)
	peak.Store(0)
	units, stalls, _, _ = pace{duration: time.Nanosecond, inflight: 1, min: 2, max: 8}.arrive(unit(5 * time.Millisecond))
	if units != 2 || stalls != 0 || peak.Load() != 1 {
		t.Errorf("rounds past the deadline: %d units, %d stalls, peak %d; want the minimum of 2, sequential", units, stalls, peak.Load())
	}
	built.Store(0)
	units, _, _, _ = pace{duration: time.Minute, inflight: 1, min: 2, max: 8}.arrive(unit(time.Millisecond))
	if units != 8 {
		t.Errorf("rounds under a long deadline: %d units, want the cap of 8", units)
	}
}

// TestFold: the one aggregator sums rows into their classes, turns the
// sums into means at finish, and counts leaks, claims and failures.
func TestFold(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{"version":"v-test"}`) }))
	defer ts.Close()
	r := &run{c: &drive.Client{Base: ts.URL, HTTP: ts.Client()}}
	r.rep = Report{Mode: "shared", Unit: "rounds"}
	r.classes("blast", "wien2k")
	row := func(name string, adaptive, baseline float64, by map[string]int) drive.Row {
		n := 0
		for _, c := range by {
			n += c
		}
		return drive.Row{ID: "wf-" + name, Name: name, AdaptiveMakespan: adaptive, BaselineMakespan: baseline,
			Reports: 10, Events: 20, Reschedules: n, ByTrigger: by}
	}
	r.fold("", &drive.Outcome{Tenants: []drive.Row{
		row("wien2k", 300, 400, map[string]int{"variance": 2}),
		row("blast", 100, 200, map[string]int{"contention": 1, "variance": 1}),
	}}, nil)
	r.fold("", &drive.Outcome{FinalReservations: 2, PlannedTransferClaims: 5, Tenants: []drive.Row{
		row("blast", 300, 200, map[string]int{"arrival": 3}),
	}}, nil)
	r.fold("", nil, errors.New("boom"))
	rep := r.finish(3, 0, time.Second, 2*time.Second)
	if rep.Submitted != 3 || rep.Completed != 2 || rep.Failed != 1 || rep.LeakedRounds != 1 || rep.TransferClaims != 5 {
		t.Errorf("run counters: %+v", rep)
	}
	if rep.Versions.Daemon != "v-test" || rep.AchievedWps != 1 {
		t.Errorf("versions %+v, achieved %v/s", rep.Versions, rep.AchievedWps)
	}
	bl, wn := rep.Classes[0], rep.Classes[1]
	if bl.Name != "blast" || bl.Completed != 2 || bl.Reschedules != 5 || bl.Reports != 20 || bl.Events != 40 ||
		bl.ByTrigger["arrival"] != 3 || bl.ByTrigger["contention"] != 1 || bl.ByTrigger["variance"] != 1 ||
		bl.AdaptiveMeanMakespan != 200 || bl.BaselineMeanMakespan != 200 || bl.MeanDeltaPct != 0 {
		t.Errorf("blast row: %+v", bl)
	}
	if wn.Completed != 1 || wn.AdaptiveMeanMakespan != 300 || wn.MeanDeltaPct != 25 {
		t.Errorf("wien2k row: %+v", wn)
	}
}

// TestScrapeDecodesFresh: two /metrics documents in sequence — the second
// without the omitempty maps the first carried — must not bleed into each
// other (the stale-entries trap chaos reports fell into), and a failed
// scrape is an error, not an empty document.
func TestScrapeDecodesFresh(t *testing.T) {
	docs := []string{
		`{"live_resident":120,"trace_stage_ms":{"plan":{"count":3}},
		  "admission":{"queue_depth_by_tenant":{"alice":4}}}`,
		`{"live_resident":0,"reports_duplicate":36}`,
	}
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := int(calls.Add(1)); n <= len(docs) {
			fmt.Fprint(w, docs[n-1])
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()
	c := &drive.Client{Base: ts.URL, HTTP: ts.Client()}
	before, err := scrape(c)
	if err != nil || before.LiveResident != 120 ||
		len(before.TraceStageMs) != 1 || before.Admission.QueueDepthByTenant["alice"] != 4 {
		t.Fatalf("first scrape = %+v, %v", before, err)
	}
	after, err := scrape(c)
	if err != nil || after.LiveResident != 0 || after.ReportsDuplicate != 36 {
		t.Fatalf("second scrape = %+v, %v", after, err)
	}
	if len(after.TraceStageMs) != 0 || len(after.Admission.QueueDepthByTenant) != 0 {
		t.Errorf("second scrape kept the first one's entries: %v %v",
			after.TraceStageMs, after.Admission.QueueDepthByTenant)
	}
	if _, err := scrape(c); err == nil || !strings.Contains(err.Error(), "HTTP 503: draining") {
		t.Errorf("failed scrape = %v, want the daemon's status and text", err)
	}
}
