package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// Workload names are fixed: later issues cite them.
const (
	wlSubmitAnalytic  = "submit_analytic"
	wlLiveFeedbackWAL = "live_feedback_wal"
	wlLiveDataStaging = "live_data_staging"
	wlCrashRecovery   = "crash_recovery"
)

// spec is one workload's fixed shape. Everything a run varies comes from
// the seed; nothing here is tunable from the command line.
type spec struct {
	name string
	// live workflows are planned by the daemon and enacted by the
	// benchmark's enactor over report batches; analytic ones run to
	// completion inside the daemon.
	live bool
	// durable starts the daemon with -data-dir <tmp> -wal-sync interval.
	durable bool
	// extraFlags are the only non-default daemon flags besides -addr and
	// the durability pair.
	extraFlags []string
	variants   int
	// noise is the enactor's runtime perturbation, churn its jitter on
	// planned resource arrivals, variance the submitted threshold.
	noise, churn, variance float64
	// fullChecks is how many variants the check pass enacts report by
	// report to completion; the rest are verified for partialReports
	// round trips and then fast-forwarded. 0 means every variant.
	fullChecks, partialReports int
	// crashN is the number of half-enacted workflows crash_recovery
	// leaves in the WAL. Fixed work: frozen here and in BENCHMARK.json.
	crashN int
}

// The variant counts are sized for steadiness across seeds, not for
// coverage: a run's metrics are averages over the variants its window
// reaches, and the generators draw per-operation mean costs from a wide
// uniform, so a small corpus makes one seed's workload measurably lighter
// than another's. Every client cycles through all variants of the
// 50–60-job workloads several times in a window.
var specs = []spec{
	{name: wlSubmitAnalytic, variants: 64},
	{name: wlLiveFeedbackWAL, live: true, durable: true, variants: 64,
		noise: 0.2, churn: 0.3, variance: 0.2, fullChecks: 8, partialReports: 6},
	// A 1026-job workflow costs a second to enact report by report, so
	// the check pass drives two variants to completion and verifies the
	// other six for 48 round trips (see README, "Check pass").
	{name: wlLiveDataStaging, live: true, variants: 8, noise: 0.2, fullChecks: 2, partialReports: 48},
	{name: wlCrashRecovery, live: true, durable: true, variants: 32,
		extraFlags: []string{"-snapshot-interval", "1h"},
		noise:      0.2, churn: 0.3, variance: 0.2, crashN: 32},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// checkTenant is the tenant of the serial check pass; client i of the
// timed phase uses clientTenant(i), so tenant histories never interleave.
const checkTenant = "bench-check"

func clientTenant(i int) string { return fmt.Sprintf("bench-c%d", i) }

// variant is one generated workflow: its scenario, the dense view the
// enactor and validator read, and the submission body pre-encoded per
// tenant so the timed loop never encodes.
type variant struct {
	name  string
	sc    *workload.Scenario
	model *data.Model // nil without a file catalog
	// bodies[0] is the check tenant's submission, bodies[1+i] client i's.
	bodies [][]byte
}

func (v *variant) jobs() int      { return v.sc.Graph.Len() }
func (v *variant) resources() int { return v.sc.Pool.Size() }

// comm is the contention-free transfer time a valid plan must leave
// between a producer's finish and its consumer's start: the derived
// size ÷ bandwidth cost for a file edge under a catalog, the raw edge
// weight otherwise, zero when co-located.
func (v *variant) comm(e dag.Edge, from, to int) float64 {
	if v.model != nil {
		if f := v.model.Index(e.File); f >= 0 {
			return v.model.StaticComm(f, grid.ID(from), grid.ID(to))
		}
	}
	return v.sc.Table.Comm(e, grid.ID(from), grid.ID(to))
}

// inputs is everything one run of a workload sends, generated from the
// seed alone.
type inputs struct {
	spec     spec
	seed     uint64
	clients  int
	variants []*variant
	// order[i] is client i's seeded cycling order over the variants.
	order [][]int
	// digest is the SHA-256 over every encoded body in tenant-major,
	// variant-minor order: two runs with equal digests sent equal bytes.
	digest string
}

// generate builds a workload's inputs. The daemon never sees the seed,
// only the encoded bodies.
func generate(sp spec, seed uint64, clients int) (*inputs, error) {
	root := rng.New(seed).Split(sp.name)
	in := &inputs{spec: sp, seed: seed, clients: clients}
	for i := 0; i < sp.variants; i++ {
		sc, name, err := scenarioFor(sp, i, root.Split(fmt.Sprintf("variant-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("%s variant %d: %w", sp.name, i, err)
		}
		v := &variant{name: name, sc: sc}
		if sc.Files != nil {
			if v.model, err = data.NewModel(sc.Files, sc.Pool, sc.Graph, 0); err != nil {
				return nil, fmt.Errorf("%s variant %d: %w", sp.name, i, err)
			}
		}
		for t := 0; t <= clients; t++ {
			tenant := checkTenant
			if t > 0 {
				tenant = clientTenant(t - 1)
			}
			body, err := encodeSubmission(sp, v, tenant)
			if err != nil {
				return nil, fmt.Errorf("%s variant %d: %w", sp.name, i, err)
			}
			v.bodies = append(v.bodies, body)
		}
		in.variants = append(in.variants, v)
	}
	h := sha256.New()
	for t := 0; t <= clients; t++ {
		for _, v := range in.variants {
			h.Write(v.bodies[t])
		}
	}
	in.digest = hex.EncodeToString(h.Sum(nil))
	for c := 0; c < clients; c++ {
		in.order = append(in.order, root.Split(fmt.Sprintf("order-c%d", c)).Perm(sp.variants))
	}
	return in, nil
}

func scenarioFor(sp spec, i int, r *rng.Source) (*workload.Scenario, string, error) {
	gp := workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4}
	app := workload.AppParams{Parallelism: 24, CCR: 1, Beta: 0.5}
	switch sp.name {
	case wlSubmitAnalytic:
		sc, err := workload.RandomScenario(workload.RandomParams{
			Jobs: 60, CCR: 2, OutDegree: 0.3, Beta: 0.5,
		}, gp, r)
		return sc, fmt.Sprintf("random60-%d", i), err
	case wlLiveFeedbackWAL:
		if i < sp.variants/2 {
			sc, err := workload.BlastScenario(app, gp, r)
			return sc, fmt.Sprintf("blast24-%d", i), err
		}
		sc, err := workload.Wien2kScenario(app, gp, r)
		return sc, fmt.Sprintf("wien2k24-%d", i), err
	case wlLiveDataStaging:
		sc := workload.DataScenario(workload.DataParams{
			Searches: 1024 - 32 + r.IntN(65),
			DBSize:   200 * r.Uniform(0.9, 1.1),
			HitSize:  8 * r.Uniform(0.9, 1.1),
		})
		return sc, fmt.Sprintf("datablast-%d", i), nil
	case wlCrashRecovery:
		sc, err := workload.BlastScenario(app, gp, r)
		return sc, fmt.Sprintf("blast24-%d", i), err
	}
	return nil, "", fmt.Errorf("unknown workload %q", sp.name)
}

func encodeSubmission(sp spec, v *variant, tenant string) ([]byte, error) {
	sub := &wire.Submission{
		Name:   v.name,
		Tenant: tenant,
		Policy: "aheft",
		Graph:  v.sc.Graph, Comp: v.sc.Table, Pool: v.sc.Pool, Files: v.sc.Files,
	}
	if sp.live {
		sub.Mode = wire.ModeLive
		sub.Options.VarianceThreshold = sp.variance
	}
	return wire.EncodeSubmission(sub)
}
