package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/stats"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// The -overload mode is the admission layer's acceptance harness: it
// answers "can one greedy tenant ruin everyone else's day?" with a
// measured no. The run is two passes of the arrival loop on one daemon
// and one shared grid:
//
//  1. Calibration: rounds of high-class "victim" workflows co-scheduled
//     on the shared grid with no competition, establishing the victims'
//     baseline p99 makespan.
//  2. Overload: the identical victim rounds, now with a "greedy-grid"
//     tenant packing several outsized workflows onto the same grid —
//     its reservations squeezed by the daemon's per-tenant share cap —
//     while a separate "greedy" tenant floods low-class analytic
//     submissions as fast as the daemon will take them (honouring its
//     429s and Retry-After), keeping the admission queue deep.
//
// The victims' metric is *makespan* — the simulated completion time the
// scheduler actually produced — not wall-clock latency, which on a
// saturated CI box measures the OS scheduler rather than admission
// policy. The gates encode the fairness claims: the victims' overload
// p99 makespan must stay within -overload-bound of their calibrated p99
// (the reservation share cap keeps the grid plannable and weighted fair
// queueing keeps their admissions flowing), at least one fast-path
// admission must later be upgraded (two-speed planning closes its debt),
// the fast path's initial-plan p99 must sit below the full path's (the
// fast plan is actually fast), and the daemon must end with zero
// reservations (nothing leaked).

// OverloadStats is the -overload section of the report; the victims'
// per-phase counts and mean makespans are its two class rows.
type OverloadStats struct {
	Bound         float64 `json:"bound"`
	RoundsCalib   int     `json:"rounds_calibration"`
	RoundsOver    int     `json:"rounds_overload"`
	GreedyOffered int     `json:"greedy_offered"`
	GreedyAdmit   int     `json:"greedy_admitted"`
	Greedy429     int     `json:"greedy_429"`
	CalibP50      float64 `json:"calibration_p50_makespan"`
	CalibP99      float64 `json:"calibration_p99_makespan"`
	OverP50       float64 `json:"overload_p50_makespan"`
	OverP99       float64 `json:"overload_p99_makespan"`
	DegradeFactor float64 `json:"degrade_factor"`
}

// flood hammers greedy low-class analytic submissions from -overload-floods
// goroutines until ctx ends; the client's Submit rides out each 429 after
// the advised delay. It counts what was offered, admitted and rejected
// into o and returns a wait for the flooders to stop.
func flood(ctx context.Context, c *drive.Client, bodies [][]byte, o *OverloadStats) (wait func()) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i := 0; i < *overloadFloods; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rng.New(*seed ^ uint64(0xf100d+i))
			for ctx.Err() == nil {
				_, rejected, err := c.Submit(ctx, bodies[r.IntN(len(bodies))])
				mu.Lock()
				o.Greedy429 += rejected
				o.GreedyOffered += rejected
				if err == nil {
					o.GreedyOffered++
					o.GreedyAdmit++
				}
				mu.Unlock()
			}
		}(i)
	}
	return wg.Wait
}

// runOverload is the -overload row.
func runOverload(r *run) *Report {
	gen := rng.New(*seed ^ 0x0e10ad)
	// One GridParams for every scenario: the pool shape is a function of
	// gp alone, so all tenants' cost tables cover the one shared grid.
	gp := workload.GridParams{InitialResources: 8, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 2}
	four := func(what string, jobs int) (scs []*workload.Scenario) {
		for i := 0; i < 4; i++ {
			sc, err := workload.RandomScenario(workload.RandomParams{Jobs: jobs, CCR: 1, OutDegree: 0.3, Beta: 0.5}, gp, gen)
			if err != nil {
				log.Fatalf("loadgen: overload: %s scenario: %v", what, err)
			}
			scs = append(scs, sc)
		}
		return scs
	}
	victims := four("victim", overloadJobs)
	// The grid hog's DAGs are double the victims' size, four to a round:
	// without the share cap its reservations would blanket the grid's
	// future and push every victim plan out past the bound.
	hogs := four("greedy", 2*overloadJobs)
	// The analytic flood runs on private pools: it exists to keep the
	// admission queue deep (429s, fast-path admissions) without adding
	// reservations of its own. Its DAGs are double victim size so each
	// item costs enough planning that the drain falls behind the
	// submission rate — a flood that drains as fast as it arrives never
	// builds the backlog the fast path keys on — while staying short
	// enough that a victim round trip waits behind at most one brief
	// execution.
	var floodBodies [][]byte
	for i, sc := range four("flood", 2*overloadJobs) {
		body, err := wire.EncodeSubmission(&wire.Submission{
			Name:    fmt.Sprintf("greedy-%d", i),
			Tenant:  "greedy",
			Policy:  policyName,
			Options: wire.Options{Class: wire.ClassLow},
			Graph:   sc.Graph, Comp: sc.Table, Pool: sc.Pool,
		})
		if err != nil {
			log.Fatalf("loadgen: overload: encode flood: %v", err)
		}
		floodBodies = append(floodBodies, body)
	}

	// phase paces rounds of two victims (cycling through all four
	// scenarios every two rounds) plus, under the flood, the grid hog's
	// four workflows, and returns the victims' makespans. Per-round seeds
	// match across phases and the victims' noise draws come first, so a
	// victim round's runtimes are identical in both phases — the only
	// difference is the competition. Calibration rounds finish in
	// milliseconds while overload rounds fight the flood for the core, so
	// an uncapped time budget would pit hundreds of calibration samples
	// against a handful of overload ones; the cap of eight keeps the two
	// phases' round sets (and their paired seeds) comparable.
	phase := func(name string, withHogs bool) (makespans []float64, rounds int, window, total time.Duration) {
		p := pace{duration: *duration, inflight: 1, min: 2, max: 8}
		rounds, _, window, total = p.arrive(func(round int) func() {
			opts := wire.Options{Class: wire.ClassHigh, VarianceThreshold: varianceThreshold}
			tenants := []drive.Tenant{
				{Name: "victim", Scenario: victims[(2*round)%len(victims)], Policy: policyName, Options: opts},
				{Name: "victim", Scenario: victims[(2*round+1)%len(victims)], Policy: policyName, Options: opts},
			}
			if withHogs {
				for i, sc := range hogs {
					tenants = append(tenants, drive.Tenant{
						Name: "greedy-grid", Scenario: sc, Policy: policyName,
						Options: wire.Options{Class: wire.ClassLow, Weight: float64(1 + i%2)},
					})
				}
			}
			return func() {
				out, err := drive.Run(context.Background(), drive.Config{
					Client: *r.c,
					Grid:   fmt.Sprintf("overload-%d", *seed),
					Pool:   victims[0].Pool,
					Noise:  0.1,
					Seed:   *seed*1_000_003 + uint64(round),
				}, tenants)
				if err == nil {
					// The class row is the victims'; the hog is competition,
					// not a result.
					out.Tenants = out.Tenants[:2]
					for _, row := range out.Tenants {
						makespans = append(makespans, row.AdaptiveMakespan)
					}
				}
				r.fold(name, out, err)
			}
		})
		return makespans, rounds, window, total
	}

	o := &OverloadStats{Bound: *overloadBound}
	r.rep.Overload = o
	log.Printf("loadgen: overload: calibration phase (≥%.0fs, victims only)", duration.Seconds())
	calib, calibRounds, w1, t1 := phase("calibration", false)

	log.Printf("loadgen: overload: overload phase (≥%.0fs, victims + grid hog + %d flooders)", duration.Seconds(), *overloadFloods)
	ctx, stop := context.WithCancel(context.Background())
	stopped := flood(ctx, r.c, floodBodies, o)
	over, overRounds, w2, t2 := phase("overload", true)
	stop()
	stopped()

	// Let the flood's backlog drain before the final metrics read, so the
	// leak gate sees the daemon quiescent, not mid-flight.
	waitQuiesce(r.c, 2*time.Minute)

	o.RoundsCalib, o.RoundsOver = calibRounds, overRounds
	cq := stats.Quantiles(calib, 0.50, 0.99)
	oq := stats.Quantiles(over, 0.50, 0.99)
	o.CalibP50, o.CalibP99, o.OverP50, o.OverP99 = cq[0], cq[1], oq[0], oq[1]
	if cq[1] > 0 {
		o.DegradeFactor = oq[1] / cq[1]
	}
	return r.finish(calibRounds+overRounds, 0, w1+w2, t1+t2)
}

// waitQuiesce polls /metrics until the daemon reports no in-flight
// workflows (the admitted greedy backlog has drained).
func waitQuiesce(c *drive.Client, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if m, err := scrape(c); err == nil && m.Inflight == 0 {
			return
		}
		time.Sleep(250 * time.Millisecond)
	}
	log.Printf("loadgen: overload: daemon did not quiesce within %s", timeout)
}
