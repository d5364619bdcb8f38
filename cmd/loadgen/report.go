package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"aheft/internal/admission"
	"aheft/internal/buildinfo"
	"aheft/internal/drive"
	"aheft/internal/planner"
	"aheft/internal/server"
	"aheft/internal/stats"
)

// versionStamp identifies both ends of a run so committed reports stay
// comparable across builds.
type versionStamp struct {
	Loadgen string `json:"loadgen"`
	// Daemon is the server's self-reported build (GET /v1/healthz);
	// empty when the daemon predates the endpoint.
	Daemon string `json:"daemon,omitempty"`
}

// ClassReport aggregates one class's outcomes: a mix class of -drive, a
// tenant class of -shared-grid/-data, a phase's victims of -overload.
type ClassReport struct {
	Name        string `json:"name"`
	Completed   int    `json:"completed"`
	Failed      int    `json:"failed"`
	Reports     int    `json:"reports"`
	Events      int    `json:"events"`
	Reschedules int    `json:"reschedules"`
	// ByTrigger splits Reschedules by the trigger the daemon named
	// (planner.TriggerNames).
	ByTrigger map[string]int `json:"reschedules_by_trigger"`
	// The two mean makespans the mode compares (Report.Adaptive and
	// Report.Baseline label them); MeanDeltaPct is
	// 100·(baseline−adaptive)/baseline over the class means: what
	// listening to the daemon bought, in makespan percent.
	AdaptiveMeanMakespan float64 `json:"adaptive_mean_makespan"`
	BaselineMeanMakespan float64 `json:"baseline_mean_makespan"`
	MeanDeltaPct         float64 `json:"mean_delta_pct"`
}

// Report is the run summary every mode prints and writes to -out.
type Report struct {
	Versions versionStamp `json:"versions"`
	Mode     string       `json:"mode"`
	// Unit names what Submitted, Completed and Failed count; Adaptive and
	// Baseline label the class rows' two makespans.
	Unit             string  `json:"unit"`
	Adaptive         string  `json:"adaptive_label,omitempty"`
	Baseline         string  `json:"baseline_label,omitempty"`
	DurationS        float64 `json:"duration_s"`      // submission window
	TotalS           float64 `json:"total_s"`         // window + drain of in-flight
	TargetRate       float64 `json:"target_rate_wps"` // 0 = uncapped
	Noise            float64 `json:"noise,omitempty"`
	Churn            float64 `json:"churn,omitempty"`
	Submitted        int     `json:"submitted"`
	Completed        int     `json:"completed"`
	Failed           int     `json:"failed"`
	Retries429       int     `json:"retries_429"`
	TransportRetries int     `json:"transport_retries"`
	Stalls           int     `json:"inflight_stalls"`
	Followed         int     `json:"followed_sse"`
	SeqGaps          int     `json:"sse_seq_gaps"`
	AchievedWps      float64 `json:"achieved_wps"`
	WallP50Ms        float64 `json:"wall_p50_ms"`
	WallP95Ms        float64 `json:"wall_p95_ms"`
	WallP99Ms        float64 `json:"wall_p99_ms"`
	ComputeP50Ms     float64 `json:"compute_p50_ms"`
	ComputeP99Ms     float64 `json:"compute_p99_ms"`
	// LeakedRounds counts units whose shared grid held reservations
	// (compute or transfer) after every tenant finished; TransferClaims
	// sums the link claims -data rounds saw staged while their plan was
	// pending — zero means no round ever exercised the data path.
	LeakedRounds   int               `json:"leaked_rounds"`
	TransferClaims int               `json:"transfer_claims_observed"`
	Classes        []ClassReport     `json:"classes,omitempty"`
	Overload       *OverloadStats    `json:"overload,omitempty"`
	Chaos          *ChaosStats       `json:"chaos,omitempty"`
	ServerMetrics  server.MetricsDoc `json:"server_metrics"`
}

// run is one mode's execution state: the daemon client every unit shares
// and the report their outcomes fold into under mu.
type run struct {
	c *drive.Client
	// followSem bounds how many workflows the load path follows live over
	// SSE (the rest are polled). Following real subscribers is what makes
	// the daemon's events_dropped counter — and the -require-zero-drops
	// gate — meaningful: only a live SSE consumer can drop events.
	followSem chan struct{}

	mu        sync.Mutex
	rep       Report
	wallMs    []float64 // submit → observed terminal state
	computeMs []float64 // server-reported engine latency
}

// add bumps one of the report's counters from a unit's goroutine.
func (r *run) add(counter *int, n int) {
	r.mu.Lock()
	*counter += n
	r.mu.Unlock()
}

// classes registers the report's class rows, in report order.
func (r *run) classes(names ...string) {
	for _, name := range names {
		r.rep.Classes = append(r.rep.Classes, ClassReport{Name: name, ByTrigger: map[string]int{}})
	}
}

// class returns the named row, registering it on first sight. Callers
// hold mu.
func (r *run) class(name string) *ClassReport {
	for i := range r.rep.Classes {
		if r.rep.Classes[i].Name == name {
			return &r.rep.Classes[i]
		}
	}
	r.classes(name)
	return &r.rep.Classes[len(r.rep.Classes)-1]
}

// fail counts one failed unit (against class too, when it has one) and
// logs the first ten.
func (r *run) fail(class, format string, args ...any) {
	r.mu.Lock()
	r.rep.Failed++
	n := r.rep.Failed
	if class != "" {
		r.class(class).Failed++
		format = class + ": " + format
	}
	r.mu.Unlock()
	if n <= 10 {
		log.Printf("loadgen: "+r.rep.prefix()+format, args...)
	}
}

// done counts one load-path workflow that reached its terminal state.
func (r *run) done(start time.Time, computeMs float64) {
	r.mu.Lock()
	r.rep.Completed++
	r.wallMs = append(r.wallMs, time.Since(start).Seconds()*1e3)
	// A real compute latency is always positive; zero means the
	// best-effort status fetch failed (transport fault, record evicted)
	// and recording it would drag the percentiles toward 0.
	if computeMs > 0 {
		r.computeMs = append(r.computeMs, computeMs)
	}
	r.mu.Unlock()
}

// fold is the one per-class aggregator: it adds a finished drive unit —
// one workflow, or one round of co-scheduled tenants — to the report.
// Every row lands in class, or in the class named after its tenant when
// class is empty. The class makespan fields hold sums until finish turns
// them into means.
func (r *run) fold(class string, out *drive.Outcome, err error) {
	if err != nil {
		r.fail(class, "%v", err)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rep.Completed++
	if out.FinalReservations != 0 || out.FinalTransferReservations != 0 {
		r.rep.LeakedRounds++
		log.Printf("loadgen: %s%s left %d compute + %d transfer reservations behind",
			r.rep.prefix(), out.Tenants[0].ID, out.FinalReservations, out.FinalTransferReservations)
	}
	r.rep.TransferClaims += out.PlannedTransferClaims
	for i := range out.Tenants {
		row := &out.Tenants[i]
		name := class
		if name == "" {
			name = row.Name
		}
		c := r.class(name)
		c.Completed++
		c.Reports += row.Reports
		c.Events += row.Events
		c.Reschedules += row.Reschedules
		for trigger, n := range row.ByTrigger {
			c.ByTrigger[trigger] += n
		}
		c.AdaptiveMeanMakespan += row.AdaptiveMakespan
		c.BaselineMeanMakespan += row.BaselineMakespan
	}
}

// scrape fetches the daemon's /metrics document. Every call decodes into
// a fresh value: the by-reason, per-tenant and per-stage maps are
// omitempty on the wire, so decoding over an earlier scrape would keep
// its stale entries.
func scrape(c *drive.Client) (server.MetricsDoc, error) {
	var m server.MetricsDoc
	err := c.GetJSON(context.Background(), "/metrics", &m)
	return m, err
}

// finish closes the run: what the arrival loop counted, the client-side
// quantiles, the class means, both ends' versions and the daemon's
// metrics.
func (r *run) finish(units, stalls int, window, total time.Duration) *Report {
	rep := &r.rep
	rep.Submitted, rep.Stalls = units, stalls
	rep.DurationS, rep.TotalS = window.Seconds(), total.Seconds()
	if total > 0 {
		rep.AchievedWps = float64(rep.Completed) / total.Seconds()
	}
	wall := stats.Quantiles(r.wallMs, 0.50, 0.95, 0.99)
	rep.WallP50Ms, rep.WallP95Ms, rep.WallP99Ms = wall[0], wall[1], wall[2]
	comp := stats.Quantiles(r.computeMs, 0.50, 0.99)
	rep.ComputeP50Ms, rep.ComputeP99Ms = comp[0], comp[1]
	for i := range rep.Classes {
		c := &rep.Classes[i]
		if c.Completed == 0 {
			continue
		}
		c.AdaptiveMeanMakespan /= float64(c.Completed)
		c.BaselineMeanMakespan /= float64(c.Completed)
		if c.BaselineMeanMakespan > 0 {
			c.MeanDeltaPct = 100 * (c.BaselineMeanMakespan - c.AdaptiveMeanMakespan) / c.BaselineMeanMakespan
		}
	}
	rep.Versions.Loadgen = buildinfo.String()
	var hz struct {
		Version string `json:"version"`
	}
	if err := r.c.GetJSON(context.Background(), "/v1/healthz", &hz); err == nil {
		rep.Versions.Daemon = hz.Version
	}
	var err error
	if rep.ServerMetrics, err = scrape(r.c); err != nil {
		log.Fatalf("loadgen: fetch metrics: %v", err)
	}
	return rep
}

// prefix scopes a mode's stdout lines and gate messages; the default load
// mode has none.
func (r *Report) prefix() string {
	if r.Mode == "load" {
		return ""
	}
	return r.Mode + ": "
}

// write is the one report writer.
func (r *Report) write(path string) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("loadgen: wrote %s", path)
	return nil
}

// print is the one stdout summary; a line appears when the mode produced
// what it reports.
func (r *Report) print() {
	p := "loadgen: " + r.prefix()
	perturbed := ""
	if r.Noise > 0 || r.Churn > 0 {
		perturbed = fmt.Sprintf(", noise %.0f%%, churn %.0f%%", 100*r.Noise, 100*r.Churn)
	}
	fmt.Printf("%s%d %s submitted, %d completed, %d failed in %.1fs (window %.1fs%s)\n",
		p, r.Submitted, r.Unit, r.Completed, r.Failed, r.TotalS, r.DurationS, perturbed)
	fmt.Printf("%sthroughput %.1f %s/sec (target rate %.0f/s, %d backpressure retries, %d in-flight stalls)\n",
		p, r.AchievedWps, r.Unit, r.TargetRate, r.Retries429, r.Stalls)
	if r.WallP99Ms > 0 {
		fmt.Printf("%sfollowed %d workflows over SSE (%d seq gaps observed client-side)\n", p, r.Followed, r.SeqGaps)
		fmt.Printf("%swall latency p50 %.1fms p95 %.1fms p99 %.1fms; compute p50 %.2fms p99 %.2fms\n",
			p, r.WallP50Ms, r.WallP95Ms, r.WallP99Ms, r.ComputeP50Ms, r.ComputeP99Ms)
	}
	for _, c := range r.Classes {
		var by []string
		for _, trigger := range planner.TriggerNames {
			by = append(by, fmt.Sprintf("%s=%d", trigger, c.ByTrigger[trigger]))
		}
		fmt.Printf("%s%-8s completed=%d %s=%.1f %s=%.1f delta=%+.1f%% reschedules=%d (%s)\n",
			p, c.Name, c.Completed, r.Adaptive, c.AdaptiveMeanMakespan, r.Baseline, c.BaselineMeanMakespan,
			c.MeanDeltaPct, c.Reschedules, strings.Join(by, " "))
	}
	if r.TransferClaims > 0 {
		fmt.Printf("%s%d link claims observed\n", p, r.TransferClaims)
	}
	if o := r.Overload; o != nil {
		fmt.Printf("%svictim rounds calib=%d over=%d; greedy offered=%d admitted=%d 429=%d\n",
			p, o.RoundsCalib, o.RoundsOver, o.GreedyOffered, o.GreedyAdmit, o.Greedy429)
		fmt.Printf("%svictim p99 makespan %.1f calibrated → %.1f under flood (factor %.2f, bound %.1f)\n",
			p, o.CalibP99, o.OverP99, o.DegradeFactor, o.Bound)
	}
	if c := r.Chaos; c != nil {
		fmt.Printf("%s%s, downtime %.0fms, %d duplicate replays acked, ledger drained\n",
			p, c.RecoveryStats, c.DowntimeMs, c.DuplicatesAcked)
	}
	m := r.ServerMetrics
	line := fmt.Sprintf("%sserver: completed=%d failed=%d reschedules=%d events=%d dropped=%d inflight_peak=%d rejected(backpressure=%d)",
		p, m.Completed, m.Failed, m.Reschedules, m.EventsEmitted, m.EventsDropped, m.InflightPeak, m.RejectedFull)
	if m.Reports > 0 {
		line += fmt.Sprintf(" reports=%d report_events=%d reports_rejected=%d", m.Reports, m.ReportEvents, m.ReportsRejected)
	}
	if m.SharedGrids > 0 {
		line += fmt.Sprintf(" grids=%d reservations=%d transfer_reservations=%d", m.SharedGrids, m.Reservations, m.TransferReservations)
	}
	fmt.Println(line)
	printAdmission(p+"server", m)
}

// printAdmission summarises the daemon's admission state from a /metrics
// snapshot: per-class admit/fast/upgrade/reject counters, queue wait and
// per-path initial-plan quantiles and drain rate. Quiet when the daemon
// predates the admission layer or saw no traffic.
func printAdmission(prefix string, m server.MetricsDoc) {
	adm := m.Admission
	line := prefix + ": admission"
	for _, class := range admission.ClassNames {
		a, rej := adm.AdmittedByClass[class], adm.RejectedByClass[class]
		if a == 0 && rej == 0 {
			continue
		}
		line += fmt.Sprintf(" %s(admit=%d fast=%d upgraded=%d 429=%d)",
			class, a, adm.FastPathByClass[class], adm.UpgradedByClass[class], rej)
	}
	if line == prefix+": admission" {
		return
	}
	if adm.WaitMs.Count > 0 {
		line += fmt.Sprintf(" wait(p50=%.2fms p99=%.2fms)", adm.WaitMs.P50, adm.WaitMs.P99)
	}
	if adm.FastInitialMs.Count > 0 || adm.FullInitialMs.Count > 0 {
		line += fmt.Sprintf(" initial(fast p99=%.2fms n=%d, full p99=%.2fms n=%d)",
			adm.FastInitialMs.P99, adm.FastInitialMs.Count, adm.FullInitialMs.P99, adm.FullInitialMs.Count)
	}
	if adm.DrainRatePerS > 0 {
		line += fmt.Sprintf(" drain=%.1f/s", adm.DrainRatePerS)
	}
	fmt.Println(line)
}
