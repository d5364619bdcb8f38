package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aheft/internal/wire"
)

// minCrashCycles is the least number of recovery cycles a run times; the
// first is discarded as warm-up of the page cache and the binary.
const minCrashCycles = 11

// planMark is what crash_recovery remembers of a half-enacted workflow:
// recovery must bring back exactly this plan.
type planMark struct {
	id         string
	generation int
	hash       uint64
}

func markOf(id string, p *wire.Plan) planMark {
	as := append([]wire.Assignment(nil), p.Assignments...)
	sort.Slice(as, func(i, j int) bool { return as[i].Job < as[j].Job })
	return planMark{id: id, generation: p.Generation, hash: wire.HashPlan(as)}
}

// populated is the daemon state crash_recovery kills: N live workflows
// enacted to half completion.
type populated struct {
	marks []planMark
	// keep is one run whose enactor is retained, to be driven to
	// completion against the recovered daemon after the last cycle.
	keep *liveRun
}

// populate advances crashN workflows to half completion over the usual
// closed-loop clients and records every plan's generation and hash.
func populate(base string, in *inputs, pop *populated) *tally {
	n := in.spec.crashN
	pop.marks = make([]planMark, n)
	callers := make([]*caller, in.clients)
	var wg sync.WaitGroup
	for c := range callers {
		callers[c] = &caller{c: newClient(base), in: in, tenant: 1 + c}
		wg.Add(1)
		go func(c int, cl *caller) {
			defer wg.Done()
			defer cl.c.close()
			for i := c; i < n && cl.t.failed == 0; i += in.clients {
				v := in.variants[i%len(in.variants)]
				run, ok := cl.openLive(v)
				if !ok {
					return
				}
				if i == 0 {
					run.static = enactStatic(v, run.en.truth, run.plan)
				}
				half := func(e *enactor) bool { return e.nFinished >= e.n/2 }
				if !cl.enact(run, 0, half) {
					return
				}
				pop.marks[i] = markOf(run.id, run.plan)
				if i == 0 {
					pop.keep = run
				}
			}
		}(c, callers[c])
	}
	wg.Wait()
	var t tally
	for _, cl := range callers {
		t.merge(&cl.t)
	}
	return &t
}

// copyTree copies a directory tree of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func treeBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// verifyRecovered holds a recovered daemon to the pre-kill state: every
// workflow is back, on the plan generation and placement it had.
func verifyRecovered(c *client, marks []planMark) error {
	m, err := scrapeMetrics(c)
	if err != nil {
		return err
	}
	if int(m.Recovered) != len(marks) {
		return fmt.Errorf("recovered %d workflows, want %d", m.Recovered, len(marks))
	}
	for _, mk := range marks {
		code, body, err := c.do("GET", "/v1/workflows/"+mk.id+"/plan", nil)
		if err != nil || code != 200 {
			return fmt.Errorf("%s: plan after recovery: HTTP %d, %v", mk.id, code, err)
		}
		var p wire.Plan
		if err := json.Unmarshal(body, &p); err != nil {
			return fmt.Errorf("%s: plan after recovery: %w", mk.id, err)
		}
		if got := markOf(mk.id, &p); got != mk {
			return fmt.Errorf("%s: recovered generation %d hash %x, had generation %d hash %x",
				mk.id, got.generation, got.hash, mk.generation, mk.hash)
		}
	}
	return nil
}

// runCrash is the fixed-work workload: populate, SIGKILL, then time
// restore → exec → ready over and over on the same crashed directory.
func runCrash(sp spec, o options) *result {
	r := newResult(sp, o)
	var pop *populated
	var popTally *tally
	var p0, p1 *probe
	st, setups := setUpRounds(sp, o, r, func(d *daemon, in *inputs) *tally {
		// Each round populates and kills; the last round's directory is
		// the one the cycles restore. The probes around the populate are
		// this workload's only window on the write path.
		pop = &populated{}
		p0, _ = takeProbe(d)
		popTally = populate(d.base, in, pop)
		p1, _ = takeProbe(d)
		d.kill()
		return popTally
	})
	if st == nil {
		return r
	}
	if p0 == nil || p1 == nil {
		r.errorf("could not scrape the daemon around the populate")
		return r
	}
	// setUpRounds timed the rounds up to the kill; the copy aside belongs
	// to set-up too, so time it into the last round.
	t0 := time.Now()
	dataDir := filepath.Join(st.dir, "data")
	crashed := filepath.Join(st.dir, "crashed")
	if err := copyTree(dataDir, crashed); err != nil {
		r.errorf("set the crashed directory aside: %v", err)
		return r
	}
	setups[len(setups)-1] += time.Since(t0).Seconds()
	r.e2e["setup_s"] = median(setups)
	r.samples["setup_s"] = len(setups)
	walBytes, err := treeBytes(crashed)
	if err != nil {
		r.errorf("%v", err)
		return r
	}

	bin := st.d.cmd.Path
	n := float64(sp.crashN)
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace && o.split {
		budget = budget * 2 / 3
	}
	var ready, cpuPerOp, rss, keepGain []float64
	began := time.Now()
	for cycle := 0; cycle < minCrashCycles || time.Since(began) < budget; cycle++ {
		if err := os.RemoveAll(dataDir); err != nil {
			r.errorf("%v", err)
			return r
		}
		if err := copyTree(crashed, dataDir); err != nil {
			r.errorf("restore the crashed directory: %v", err)
			return r
		}
		d, err := startDaemon(bin, st.dir, daemonFlags(sp, st.dir))
		if err != nil {
			r.errorf("%v", err)
			return r
		}
		lat, err := d.waitReady(60 * time.Second)
		if err != nil {
			r.errorf("cycle %d: %v", cycle, err)
			d.kill()
			return r
		}
		cpu, _ := procCPU(d.pid())
		hwm, _ := procPeakRSS(d.pid())
		r.attempted += sp.crashN
		if err := verifyRecovered(d.ctl, pop.marks); err != nil {
			r.failed += sp.crashN
			r.errorf("cycle %d: %v", cycle, err)
			d.kill()
			return r
		}
		if cycle > 0 {
			ready = append(ready, ms(lat))
			cpuPerOp = append(cpuPerOp, cpu*1e3/n)
			rss = append(rss, hwm)
		}
		last := cycle+1 >= minCrashCycles && time.Since(began) >= budget
		if last {
			// One recovered workflow is driven to completion: recovery
			// must leave a run the enactor can simply carry on with.
			cl := &caller{c: newClient(d.base), in: st.in, tenant: 1, verify: true}
			ok := cl.enact(pop.keep, 0, nil)
			cl.c.close()
			r.fold(&cl.t)
			keepGain = cl.t.gains
			if !ok {
				d.kill()
				return r
			}
		}
		d.kill()
	}

	r.e2e["latency_p50_ms"] = median(ready)
	r.e2e["latency_p90_ms"] = quantile(ready, 0.9)
	r.samples["latency_p50_ms"] = len(ready)
	r.samples["latency_p90_ms"] = len(ready)
	r.e2e["throughput_ops_s"] = n / (median(ready) / 1e3)
	r.layer["server.initial_plan_p50_ms"] = quantile(popTally.initial, 0.5)
	r.samples["server.initial_plan_p50_ms"] = len(popTally.initial)
	// The mean, not the median: the per-cycle CPU reading comes in ticks
	// of 10 ms, and averaging dithers the quantisation away.
	r.e2e["cpu_ms_per_op"] = mean(cpuPerOp)
	r.e2e["peak_rss_mb"] = median(rss)
	l := r.layer
	l["durable.wal_mb_at_kill"] = float64(walBytes) / (1 << 20)
	l["durable.wal_kb_per_op"] = float64(walBytes) / 1024 / n
	l["server.latency_p99_ms"] = quantile(ready, 0.99)
	acks := popTally.latencies(false)
	l["server.record_ack_p50_ms"] = quantile(acks, 0.5)
	r.samples["server.record_ack_p50_ms"] = len(acks)
	l["server.events_dropped"] = float64(p1.m.EventsDropped)
	l["planner.makespan_gain_pct"] = mean(keepGain) * 100
	scrapedMetrics(l, p0, p1, n)
	if o.trace {
		tracedCrash(r, sp, st.in, crashed, o)
	}
	return r
}
