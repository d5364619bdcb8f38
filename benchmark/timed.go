package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aheft/internal/stats"
)

// setupRounds is how many times a run sets up from scratch; setup_s is
// the median, so the one cold build of a fresh checkout does not show.
const setupRounds = 3

// options are one run's arguments.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// split makes a traced run share its seconds — two thirds for the
	// out-of-process window, one third for the traced pass — so that it
	// costs what an untraced run costs. The suite runs the full window
	// and the traced pass after it.
	split   bool
	clients int
}

// result is one run of one workload.
type result struct {
	workload  string
	seed      uint64
	digest    string
	attempted int
	failed    int
	errs      []string
	// e2e and layer hold the metrics by name; samples the sample count
	// behind each timing.
	e2e, layer map[string]float64
	samples    map[string]int
	// notes are observations printed with the result that are not metrics.
	notes []string
}

func newResult(sp spec, o options) *result {
	return &result{
		workload: sp.name, seed: o.seed,
		e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{},
	}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *result) errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *result) fold(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.errs = append(r.errs, t.errs...)
}

// stage is a daemon that has been set up for a workload: built, started
// on fresh state, healthy, and through its check pass.
type stage struct {
	d     *daemon
	in    *inputs
	dir   string
	check *tally
}

func daemonFlags(sp spec, dir string) []string {
	flags := append([]string(nil), sp.extraFlags...)
	if sp.durable {
		flags = append(flags, "-data-dir", filepath.Join(dir, "data"), "-wal-sync", "interval")
	}
	return flags
}

// setUp performs one full set-up: build, generate, start, wait, check.
func setUp(sp spec, o options, check func(*daemon, *inputs) *tally) (*stage, error) {
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	in, err := generate(sp, o.seed, o.clients)
	if err != nil {
		return nil, err
	}
	dir, err := newRunDir()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(bin, dir, daemonFlags(sp, dir))
	if err != nil {
		return nil, err
	}
	if _, err := d.waitReady(30 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return &stage{d: d, in: in, dir: dir, check: check(d, in)}, nil
}

// setUpRounds sets up setupRounds times, tearing every stage but the last
// down cleanly, and returns the last stage with the per-round durations.
func setUpRounds(sp spec, o options, r *result, check func(*daemon, *inputs) *tally) (*stage, []float64) {
	var durs []float64
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		st, err := setUp(sp, o, check)
		if err != nil {
			r.errorf("set-up: %v", err)
			return nil, durs
		}
		durs = append(durs, time.Since(t0).Seconds())
		r.digest = st.in.digest
		if round == setupRounds-1 || st.check.failed > 0 {
			r.fold(st.check)
			if st.check.failed > 0 {
				st.d.kill()
				return nil, durs
			}
			return st, durs
		}
		if err := st.d.terminate(90 * time.Second); err != nil {
			r.errorf("set-up round %d: %v", round, err)
			return nil, durs
		}
		os.RemoveAll(st.dir)
	}
	return nil, durs
}

// checkPass runs every variant once, serially, as the check tenant, with
// full output verification. It doubles as the daemon's warm-up.
func checkPass(base string, in *inputs) *tally {
	cl := &caller{c: newClient(base), in: in, tenant: 0, verify: true}
	defer cl.c.close()
	sp := in.spec
	for i, v := range in.variants {
		if !sp.live {
			cl.analyticOp(v)
		} else {
			maxReports := 0
			if sp.fullChecks > 0 && i >= sp.fullChecks {
				maxReports = sp.partialReports
			}
			cl.liveWorkflow(v, maxReports)
		}
		if cl.t.failed > 0 {
			break
		}
	}
	return &cl.t
}

// probe is one reading of everything scraped from outside the daemon.
type probe struct {
	m       *metricsDoc
	cpu     float64 // daemon user+sys seconds
	selfCPU float64 // load generator user+sys seconds
	at      time.Time
}

func takeProbe(d *daemon) (*probe, error) {
	m, err := d.metrics()
	if err != nil {
		return nil, err
	}
	cpu, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	return &probe{m: m, cpu: cpu, selfCPU: selfCPU(), at: time.Now()}, nil
}

// runTimed is the fixed-time shape shared by the three timed workloads:
// set up, run the closed loop for the window, scrape, drain, SIGTERM.
func runTimed(sp spec, o options) *result {
	r := newResult(sp, o)
	st, setups := setUpRounds(sp, o, r, func(d *daemon, in *inputs) *tally { return checkPass(d.base, in) })
	if st == nil {
		return r
	}
	d, in := st.d, st.in
	r.e2e["setup_s"] = median(setups)
	r.samples["setup_s"] = len(setups)

	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace && o.split {
		window = window * 2 / 3
	}
	p0, err := takeProbe(d)
	if err != nil {
		r.errorf("%v", err)
		d.kill()
		return r
	}
	deadline := p0.at.Add(window)
	wait := startClients(d.base, in, deadline)
	// The window is read in slices: daemon CPU is sampled at every slice
	// boundary, operations are binned by completion time, and the
	// throughput, latency and CPU metrics are medians over the slices, so
	// one disturbed second moves nothing.
	slices := sliceCount(window)
	cpuAt := []float64{p0.cpu}
	for k := 1; k < slices; k++ {
		time.Sleep(time.Until(p0.at.Add(window * time.Duration(k) / time.Duration(slices))))
		c, _ := procCPU(d.pid())
		cpuAt = append(cpuAt, c)
	}
	time.Sleep(time.Until(deadline))
	p1, err := takeProbe(d)
	t := wait()
	if err != nil {
		r.errorf("%v", err)
		d.kill()
		return r
	}
	r.fold(t)
	end, err := d.metrics()
	if err != nil {
		r.errorf("%v", err)
		d.kill()
		return r
	}
	rss, err := procPeakRSS(d.pid())
	if err != nil {
		r.errorf("%v", err)
	}
	if sp.durable {
		onDisk, err := treeBytes(filepath.Join(st.dir, "data"))
		if err != nil {
			r.errorf("%v", err)
		}
		r.layer["durable.wal_mb_at_kill"] = float64(onDisk) / (1 << 20)
	} else {
		r.layer["durable.wal_mb_at_kill"] = 0
	}
	if t.failed > 0 {
		// A failed client may have left a live workflow behind; a drain
		// would wait for it.
		d.kill()
	} else if err := d.terminate(90 * time.Second); err != nil {
		r.errorf("%v", err)
	}
	if end.EventsDropped != 0 || end.Failed != 0 || end.WALErrors != 0 {
		r.errorf("daemon reports events_dropped=%d failed=%d wal_errors=%d, want all 0",
			end.EventsDropped, end.Failed, end.WALErrors)
	}
	if len(t.ops) == 0 {
		r.errorf("no operation completed inside the window")
		return r
	}
	cpuAt = append(cpuAt, p1.cpu)
	timedMetrics(r, t, st.check, p0, p1, end, rss, window, cpuAt)
	if o.trace {
		tracedRun(r, sp, in, o)
	}
	return r
}

// startClients starts the closed loop: one caller per client, each on its
// own tenant and connection, cycling the variants in its seeded order
// until the deadline. The returned function waits for the callers — each
// finishes the workflow it has in flight — and merges what they measured.
func startClients(base string, in *inputs, deadline time.Time) (wait func() *tally) {
	callers := make([]*caller, in.clients)
	var wg sync.WaitGroup
	for i := range callers {
		cl := &caller{c: newClient(base), in: in, tenant: 1 + i, deadline: deadline}
		callers[i] = cl
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			defer cl.c.close()
			for n := 0; cl.t.failed == 0 && time.Now().Before(deadline); n++ {
				v := in.variants[order[n%len(order)]]
				if in.spec.live {
					cl.liveWorkflow(v, 0)
				} else {
					cl.analyticOp(v)
				}
			}
		}(in.order[i])
	}
	return func() *tally {
		wg.Wait()
		var t tally
		for _, cl := range callers {
			t.merge(&cl.t)
		}
		return &t
	}
}

// timedMetrics derives the end-to-end metrics and the scraped (S) layer
// metrics of a timed run.
func timedMetrics(r *result, t, check *tally, p0, p1 *probe, end *metricsDoc, rss float64, window time.Duration, cpuAt []float64) {
	k := len(cpuAt) - 1
	width := window / time.Duration(k)
	type bin struct {
		ops     int
		primary []float64
	}
	bins := make([]bin, k)
	for _, op := range t.ops {
		i := int(op.at.Sub(p0.at) / width)
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		bins[i].ops++
		if op.primary {
			bins[i].primary = append(bins[i].primary, op.lat)
		}
	}
	var thr, p50, p90, cpu []float64
	for i, b := range bins {
		thr = append(thr, float64(b.ops)/width.Seconds())
		if b.ops > 0 {
			cpu = append(cpu, (cpuAt[i+1]-cpuAt[i])*1e3/float64(b.ops))
		}
		if len(b.primary) > 0 {
			q := stats.Quantiles(b.primary, 0.5, 0.9)
			p50, p90 = append(p50, q[0]), append(p90, q[1])
		}
	}
	primary := t.latencies(true)
	r.e2e["throughput_ops_s"] = median(thr)
	r.e2e["latency_p50_ms"] = median(p50)
	r.e2e["latency_p90_ms"] = median(p90)
	r.samples["throughput_ops_s"] = len(t.ops)
	r.samples["latency_p50_ms"] = len(primary)
	r.samples["latency_p90_ms"] = len(primary)
	r.layer["server.initial_plan_p50_ms"] = quantile(t.initial, 0.5)
	r.samples["server.initial_plan_p50_ms"] = len(t.initial)
	r.e2e["cpu_ms_per_op"] = median(cpu)
	r.e2e["peak_rss_mb"] = rss

	l := r.layer
	l["durable.wal_kb_per_op"] = float64(p1.m.WALBytes-p0.m.WALBytes) / 1024 / float64(len(t.ops))
	l["planner.makespan_gain_pct"] = mean(check.gains) * 100
	r.samples["planner.makespan_gain_pct"] = len(check.gains)
	l["server.latency_p99_ms"] = quantile(primary, 0.99)
	// The second kind of round trip: non-evaluating report acks, or the
	// event-stream follow of an analytic submission.
	second := t.latencies(false)
	if len(second) == 0 {
		second = t.follow
	}
	l["server.record_ack_p50_ms"] = quantile(second, 0.5)
	r.samples["server.record_ack_p50_ms"] = len(second)
	l["server.events_dropped"] = float64(end.EventsDropped)
	if note := fallbackNote(end); note != "" {
		r.notes = append(r.notes, note)
	}
	scrapedMetrics(l, p0, p1, float64(p1.m.Completed-p0.m.Completed))
}

// fallbackNote says why the kernel's delta path was abandoned, by the
// daemon's own count of fallback reasons — the explanation behind
// kernel.delta_share.
func fallbackNote(m *metricsDoc) string {
	total := m.Delta + m.FullFallback
	if total == 0 {
		return ""
	}
	reasons := make([]string, 0, len(m.FallbackBy))
	for reason := range m.FallbackBy {
		reasons = append(reasons, reason)
	}
	sort.Slice(reasons, func(i, j int) bool {
		a, b := m.FallbackBy[reasons[i]], m.FallbackBy[reasons[j]]
		if a != b {
			return a > b
		}
		return reasons[i] < reasons[j]
	})
	note := fmt.Sprintf("delta path taken on %d of %d evaluations; fallbacks:", m.Delta, total)
	for _, reason := range reasons {
		note += fmt.Sprintf(" %s %.0f%%", reason, 100*float64(m.FallbackBy[reason])/float64(total))
	}
	return note
}

// sliceCount is how many slices a window is read in: one per second,
// never fewer than five.
func sliceCount(window time.Duration) int {
	if n := int(window / time.Second); n > 5 {
		return n
	}
	return 5
}

// scrapedMetrics derives the layer metrics read from the daemon's public
// /metrics and from /proc between two probes. wfs is the number of
// workflows the interval covered.
func scrapedMetrics(l map[string]float64, p0, p1 *probe, wfs float64) {
	dm := func(f func(*metricsDoc) uint64) float64 { return float64(f(p1.m) - f(p0.m)) }
	walBytes := dm(func(m *metricsDoc) uint64 { return m.WALBytes })
	walAppends := dm(func(m *metricsDoc) uint64 { return m.WALAppends })
	reports := dm(func(m *metricsDoc) uint64 { return m.Reports })
	decisions := dm(func(m *metricsDoc) uint64 { return m.Decisions })
	delta := dm(func(m *metricsDoc) uint64 { return m.Delta })
	full := dm(func(m *metricsDoc) uint64 { return m.FullFallback })
	l["server.events_per_wf"] = ratio(dm(func(m *metricsDoc) uint64 { return m.EventsEmitted }), wfs)
	l["admission.wait_p50_ms"] = p1.m.Admission.WaitMs.P50
	l["kernel.delta_share"] = ratio(delta, delta+full)
	l["kernel.evals_per_report"] = ratio(decisions, reports)
	l["planner.decisions_per_wf"] = ratio(decisions, wfs)
	l["durable.wal_kb_per_append"] = ratio(walBytes/1024, walAppends)
	l["durable.appends_per_report"] = ratio(walAppends, reports)
	cpu, self := p1.cpu-p0.cpu, p1.selfCPU-p0.selfCPU
	l["proc.loadgen_cpu_share"] = ratio(self, self+cpu)
	l["proc.daemon_cores_busy"] = cpu / p1.at.Sub(p0.at).Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
