// Command overload is the admission layer's out-of-process acceptance
// run against a running aheftd. It answers "can one greedy tenant ruin
// everyone else's day?" in two phases on one shared grid:
//
//  1. Calibration: rounds of two high-class victim workflows on the grid
//     with no competition, establishing the victims' p99 makespan.
//  2. Overload: the identical rounds beside a low-class grid hog packing
//     four double-size workflows onto the grid, while 16 flooders submit
//     low-class analytic workflows as fast as the daemon takes them, each
//     429 waited out after the advised delay.
//
// Each phase runs rounds one after another for eight seconds, at least
// two and at most eight. Exit status 1 names the violated gate: the victims'
// p99 makespan must stay within 3× of calibration, the flood must trip
// the fast path and be paid back by an upgrade, the fast path's
// initial-plan p99 must sit below the full path's, no round may fail or
// leak a reservation, and the quiescent daemon must hold none.
//
// The in-process twin, internal/server's
// TestOverloadKeepsVictimsWithinBound, parks the shard workers so that
// every overload admission takes the fast path, and holds every gate but
// the initial-plan p99 ordering. That one needs full-path admissions made
// under the flood, which only a real, unparked backlog produces.
//
//	aheftd -addr 127.0.0.1:7074 -shards 2 -queue 64 -tenant-backlog 48 \
//	    -fast-path-depth 4 -grid-share-cap 0.5 &
//	go run ./cmd/overload -addr http://127.0.0.1:7074 -out overload-report.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/server"
	"aheft/internal/stats"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

const (
	seed       = 7
	floods     = 16              // concurrent flooder goroutines
	bound      = 3.0             // allowed victim p99 makespan degradation
	victimJobs = 30              // victim DAG size; hog and flood DAGs are double
	duration   = 8 * time.Second // per phase
	minRounds  = 2               // per phase, whatever the clock says
	maxRounds  = 8
)

// flags builds the flag set; TestCIInvocationsParse parses the documented
// command lines through it.
func flags(stderr io.Writer) (fs *flag.FlagSet, addr, out *string) {
	fs = flag.NewFlagSet("overload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr = fs.String("addr", "http://127.0.0.1:7070", "daemon base URL")
	out = fs.String("out", "", "write the JSON report here")
	return fs, addr, out
}

// Report is the run summary -out receives.
type Report struct {
	RoundsCalib   int               `json:"rounds_calibration"`
	RoundsOver    int               `json:"rounds_overload"`
	FloodOffered  int64             `json:"flood_offered"`
	Flood429      int64             `json:"flood_429"`
	CalibP50      float64           `json:"calibration_p50_makespan"`
	CalibP99      float64           `json:"calibration_p99_makespan"`
	OverP50       float64           `json:"overload_p50_makespan"`
	OverP99       float64           `json:"overload_p99_makespan"`
	DegradeFactor float64           `json:"degrade_factor"`
	ServerMetrics server.MetricsDoc `json:"server_metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the process's exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs, addr, out := flags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "overload: stray arguments %q\n", fs.Args())
		return 2
	}
	logger := log.New(stderr, "overload: ", log.LstdFlags)
	// Every round and flooder shares this client; the default transport's
	// two idle conns per host would melt under the flood, so each flooder
	// and the round keep a connection of their own.
	const conns = floods + 1
	c := &drive.Client{Base: *addr, HTTP: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}}
	if err := c.WaitReady(context.Background(), 10*time.Second); err != nil {
		logger.Print(err)
		return 1
	}
	rep, err := overload(c, logger)
	if err != nil {
		logger.Print(err)
		return 1
	}
	m := rep.ServerMetrics
	adm := m.Admission
	fmt.Fprintf(stdout, "overload: victim rounds calib=%d over=%d; flood offered=%d 429=%d\n",
		rep.RoundsCalib, rep.RoundsOver, rep.FloodOffered, rep.Flood429)
	fmt.Fprintf(stdout, "overload: victim p99 makespan %.1f calibrated → %.1f under flood (factor %.2f, bound %.1f)\n",
		rep.CalibP99, rep.OverP99, rep.DegradeFactor, bound)
	fmt.Fprintf(stdout, "overload: server: completed=%d failed=%d reservations=%d fast=%v upgraded=%v initial(fast p99=%.2fms n=%d, full p99=%.2fms n=%d)\n",
		m.Completed, m.Failed, m.Reservations, adm.FastPathByClass, adm.UpgradedByClass,
		adm.FastInitialMs.P99, adm.FastInitialMs.Count, adm.FullInitialMs.P99, adm.FullInitialMs.Count)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			logger.Printf("write report: %v", err)
			return 1
		}
	}
	if bad := violations(rep); len(bad) > 0 {
		for _, v := range bad {
			logger.Print(v)
		}
		return 1
	}
	return 0
}

// overload runs both phases against the daemon behind c.
func overload(c *drive.Client, logger *log.Logger) (*Report, error) {
	gen := rng.New(seed ^ 0x0e10ad)
	// One GridParams for every scenario: the pool is a function of it
	// alone, so every tenant's cost table covers the one shared grid.
	gp := workload.GridParams{InitialResources: 8, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 2}
	four := func(jobs int) ([]*workload.Scenario, error) {
		var scs []*workload.Scenario
		for i := 0; i < 4; i++ {
			sc, err := workload.RandomScenario(workload.RandomParams{Jobs: jobs, CCR: 1, OutDegree: 0.3, Beta: 0.5}, gp, gen)
			if err != nil {
				return nil, err
			}
			scs = append(scs, sc)
		}
		return scs, nil
	}
	victims, err := four(victimJobs)
	if err != nil {
		return nil, err
	}
	// Without the share cap the hog's reservations would blanket the
	// grid's future and push every victim plan out past the bound.
	hogs, err := four(2 * victimJobs)
	if err != nil {
		return nil, err
	}
	// The flood runs on private pools: it keeps the admission queue deep
	// (429s, fast-path admissions) without adding reservations. Its DAGs
	// are double victim size so the drain falls behind the submissions.
	floodScs, err := four(2 * victimJobs)
	if err != nil {
		return nil, err
	}
	var floodBodies [][]byte
	for i, sc := range floodScs {
		body, err := wire.EncodeSubmission(&wire.Submission{
			Name: fmt.Sprintf("greedy-%d", i), Tenant: "greedy", Policy: "aheft",
			Options: wire.Options{Class: wire.ClassLow},
			Graph:   sc.Graph, Comp: sc.Table, Pool: sc.Pool,
		})
		if err != nil {
			return nil, err
		}
		floodBodies = append(floodBodies, body)
	}

	// phase runs rounds of two victims, cycling through the four scenarios,
	// plus the hog's four workflows under overload, and returns the
	// victims' makespans. Seeds match across phases and the victims' noise
	// draws come first, so only the competition differs.
	phase := func(overload bool) (makespans []float64, rounds int, err error) {
		start := time.Now()
		for ; rounds < minRounds || (rounds < maxRounds && time.Since(start) < duration); rounds++ {
			opts := wire.Options{Class: wire.ClassHigh, VarianceThreshold: 0.2}
			tenants := []drive.Tenant{
				{Name: "victim", Scenario: victims[(2*rounds)%len(victims)], Policy: "aheft", Options: opts},
				{Name: "victim", Scenario: victims[(2*rounds+1)%len(victims)], Policy: "aheft", Options: opts},
			}
			if overload {
				for k, sc := range hogs {
					tenants = append(tenants, drive.Tenant{Name: "greedy-grid", Scenario: sc, Policy: "aheft",
						Options: wire.Options{Class: wire.ClassLow, Weight: float64(1 + k%2)}})
				}
			}
			out, err := drive.Run(context.Background(), drive.Config{
				Client: *c, Grid: fmt.Sprintf("overload-%d", seed), Pool: victims[0].Pool,
				Noise: 0.1, Seed: seed*1_000_003 + uint64(rounds),
			}, tenants)
			if err != nil {
				return nil, rounds, fmt.Errorf("round %d: %w", rounds, err)
			}
			if out.FinalReservations != 0 || out.FinalTransferReservations != 0 {
				return nil, rounds, fmt.Errorf("round %d left %d compute + %d transfer reservations behind",
					rounds, out.FinalReservations, out.FinalTransferReservations)
			}
			makespans = append(makespans, out.Tenants[0].AdaptiveMakespan, out.Tenants[1].AdaptiveMakespan)
		}
		return makespans, rounds, nil
	}

	rep := &Report{}
	logger.Printf("calibration phase (≥%s, victims only)", duration)
	calib, n, err := phase(false)
	if err != nil {
		return nil, fmt.Errorf("calibration %w", err)
	}
	rep.RoundsCalib = n

	logger.Printf("overload phase (≥%s, victims + grid hog + %d flooders)", duration, floods)
	ctx, stop := context.WithCancel(context.Background())
	var offered, rejected atomic.Int64
	var flooders sync.WaitGroup
	for f := 0; f < floods; f++ {
		flooders.Add(1)
		go func() {
			defer flooders.Done()
			r := rng.New(seed ^ uint64(0xf100d+f))
			for ctx.Err() == nil {
				_, n, err := c.Submit(ctx, floodBodies[r.IntN(len(floodBodies))])
				rejected.Add(int64(n))
				offered.Add(int64(n))
				if err == nil {
					offered.Add(1)
				}
			}
		}()
	}
	over, n, err := phase(true)
	stop()
	flooders.Wait()
	if err != nil {
		return nil, fmt.Errorf("overload %w", err)
	}
	rep.RoundsOver, rep.FloodOffered, rep.Flood429 = n, offered.Load(), rejected.Load()

	// Let the flood's backlog drain, so the leak gate sees the daemon
	// quiescent, not mid-flight.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var m server.MetricsDoc
		if err := c.GetJSON(context.Background(), "/metrics", &m); err != nil {
			return nil, err
		}
		if m.Inflight == 0 {
			rep.ServerMetrics = m
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon not quiescent 2m after the flood: inflight %d", m.Inflight)
		}
		time.Sleep(250 * time.Millisecond)
	}
	cq, oq := stats.Quantiles(calib, 0.50, 0.99), stats.Quantiles(over, 0.50, 0.99)
	rep.CalibP50, rep.CalibP99, rep.OverP50, rep.OverP99 = cq[0], cq[1], oq[0], oq[1]
	if cq[1] > 0 {
		rep.DegradeFactor = oq[1] / cq[1]
	}
	return rep, nil
}

// violations lists the gates the finished run broke; empty means exit 0.
func violations(rep *Report) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	switch {
	case rep.CalibP99 <= 0 || rep.OverP99 <= 0:
		fail("a phase produced no victim makespan (p99 %.1f calibrated, %.1f under flood)", rep.CalibP99, rep.OverP99)
	case rep.DegradeFactor > bound:
		fail("victim p99 makespan degraded %.2f× under the flood, bound %.1f×", rep.DegradeFactor, bound)
	}
	m := rep.ServerMetrics
	adm := m.Admission
	var fastAdmits, upgrades uint64
	for _, n := range adm.FastPathByClass {
		fastAdmits += n
	}
	for _, n := range adm.UpgradedByClass {
		upgrades += n
	}
	switch {
	case fastAdmits == 0:
		fail("the flood never tripped the fast path (is the daemon's -fast-path-depth low enough?)")
	case upgrades == 0:
		fail("no fast-path admission was upgraded to a full plan")
	case adm.FastInitialMs.Count > 0 && adm.FullInitialMs.Count > 0 && adm.FastInitialMs.P99 >= adm.FullInitialMs.P99:
		fail("fast-path initial-plan p99 %.2fms not below full-path %.2fms", adm.FastInitialMs.P99, adm.FullInitialMs.P99)
	}
	if m.Reservations != 0 || m.TransferReservations != 0 {
		fail("daemon still holds %d compute + %d transfer reservations after all rounds", m.Reservations, m.TransferReservations)
	}
	return bad
}
