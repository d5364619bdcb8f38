package main

import "fmt"

// gates names the conditions a run must meet to exit zero: the -require-*
// flags that apply to the mode plus the mode's built-in ones. The zero
// value requires nothing.
type gates struct {
	// completed: at least one unit completed and none failed.
	completed bool
	// zeroDrops: the daemon dropped no SSE event. minInflight: its
	// inflight_peak reached at least this.
	zeroDrops   bool
	minInflight int
	// Every exercised class saw at least minTriggered reschedules of
	// trigger (triggerLabel is how the violation words it).
	trigger, triggerLabel string
	minTriggered          int
	// beatPerClass: no exercised class's adaptive mean is worse than its
	// baseline mean. beatOverall: the adaptive mean over all classes
	// strictly beats the baseline mean.
	beatPerClass, beatOverall bool
	// noLeaks: no unit left reservations behind and the daemon ends
	// holding none. serverFailed: the daemon reports zero failed workflows.
	noLeaks, serverFailed bool
	// claims: at least one round staged a transfer claim.
	claims bool
	// degradeBound (> 0) caps the -overload victims' p99 makespan
	// degradation; twoSpeed requires the flood to have tripped the fast
	// path, an upgrade to have closed that debt, and the fast path's
	// initial-plan p99 to sit below the full path's.
	degradeBound float64
	twoSpeed     bool
	// duplicates: the daemon acked every -chaos prefix replay as a
	// duplicate.
	duplicates bool
}

// violations is the one gate evaluator: a pure function from a finished
// report (the daemon's metrics ride in it) and the required gates to the
// list of violated ones, each worded for the log. Empty means exit zero.
func violations(rep *Report, g gates) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	p, m := rep.prefix(), rep.ServerMetrics
	if g.completed {
		switch {
		case rep.Completed == 0:
			fail("%snothing completed", p)
		case rep.Failed > 0:
			fail("%s%d %s failed", p, rep.Failed, rep.Unit)
		}
	}
	if g.zeroDrops && m.EventsDropped > 0 {
		fail("daemon dropped %d events", m.EventsDropped)
	}
	if g.minInflight > 0 && m.InflightPeak < int64(g.minInflight) {
		fail("inflight peak %d below required %d", m.InflightPeak, g.minInflight)
	}
	if g.noLeaks {
		if rep.LeakedRounds > 0 {
			fail("%s%d %s leaked reservations", p, rep.LeakedRounds, rep.Unit)
		}
		if m.Reservations != 0 || m.TransferReservations != 0 {
			fail("%sdaemon still holds %d compute + %d transfer reservations after all %s",
				p, m.Reservations, m.TransferReservations, rep.Unit)
		}
	}
	if g.serverFailed && m.Failed != 0 {
		fail("%sdaemon reports %d failed workflows", p, m.Failed)
	}
	if g.claims && rep.TransferClaims == 0 {
		fail("%sno round staged a single transfer claim — the data path was never exercised", p)
	}
	// Per-class gates apply only to classes the run actually exercised —
	// a class the picker never drew has nothing to prove.
	var n, adaptive, baseline float64
	for _, c := range rep.Classes {
		if c.Completed == 0 {
			continue
		}
		n += float64(c.Completed)
		adaptive += c.AdaptiveMeanMakespan * float64(c.Completed)
		baseline += c.BaselineMeanMakespan * float64(c.Completed)
		if g.minTriggered > 0 && c.ByTrigger[g.trigger] < g.minTriggered {
			fail("class %s saw %d %s reschedules, require %d", c.Name, c.ByTrigger[g.trigger], g.triggerLabel, g.minTriggered)
		}
		if g.beatPerClass && c.AdaptiveMeanMakespan > c.BaselineMeanMakespan {
			fail("class %s %s mean %.1f worse than %s %.1f",
				c.Name, rep.Adaptive, c.AdaptiveMeanMakespan, rep.Baseline, c.BaselineMeanMakespan)
		}
	}
	if g.beatOverall && (n == 0 || adaptive >= baseline) {
		fail("%s%s mean %.1f does not beat %s mean %.1f", p, rep.Adaptive, adaptive/max(n, 1), rep.Baseline, baseline/max(n, 1))
	}
	if o := rep.Overload; o != nil && g.degradeBound > 0 {
		switch {
		case o.CalibP99 <= 0 || o.OverP99 <= 0:
			fail("%sa phase produced no victim makespan (p99 %.1f calibrated, %.1f under flood)", p, o.CalibP99, o.OverP99)
		case o.DegradeFactor > g.degradeBound:
			fail("%svictim p99 makespan degraded %.2f× under the flood, bound %.1f×", p, o.DegradeFactor, g.degradeBound)
		}
	}
	if adm := m.Admission; g.twoSpeed {
		var fastAdmits, upgrades uint64
		for _, n := range adm.FastPathByClass {
			fastAdmits += n
		}
		for _, n := range adm.UpgradedByClass {
			upgrades += n
		}
		switch {
		case fastAdmits == 0:
			fail("%sflood never tripped the fast path (raise -overload-floods or lower the daemon's -fast-path-depth)", p)
		case upgrades == 0:
			fail("%sno fast-path admission was upgraded to a full plan", p)
		case adm.FastInitialMs.Count > 0 && adm.FullInitialMs.Count > 0 && adm.FastInitialMs.P99 >= adm.FullInitialMs.P99:
			fail("%sfast-path initial-plan p99 %.2fms not below full-path %.2fms", p, adm.FastInitialMs.P99, adm.FullInitialMs.P99)
		}
	}
	if c := rep.Chaos; c != nil && g.duplicates && m.ReportsDuplicate < uint64(c.DuplicatesAcked) {
		fail("%sreports_duplicate=%d, want >= %d", p, m.ReportsDuplicate, c.DuplicatesAcked)
	}
	return bad
}
