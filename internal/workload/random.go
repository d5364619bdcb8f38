package workload

import (
	"fmt"
	"math"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/rng"
)

// RandomParams are the paper's Table 2 DAG-shape parameters, following the
// heterogeneous computation modelling approach of the HEFT paper.
type RandomParams struct {
	// Jobs is υ, the number of jobs.
	Jobs int
	// CCR is the communication-to-computation ratio: mean edge weight over
	// mean computation cost. Data-intensive workflows have high CCR.
	CCR float64
	// OutDegree bounds a node's out-edges as a fraction of υ.
	OutDegree float64
	// Beta is the resource heterogeneity factor: w(i,j) is drawn from
	// [w̄_i(1−β/2), w̄_i(1+β/2)]. Zero means homogeneous resources.
	Beta float64
	// Alpha is the Topcuoglu shape parameter: the graph has about
	// sqrt(υ)/α levels and mean level width α·sqrt(υ). α > 1 yields short,
	// wide (highly parallel) DAGs; α < 1 yields long, narrow ones. Zero
	// means 1.0. The HEFT paper sweeps α over {0.5, 1.0, 2.0}, which the
	// experiment harness reproduces.
	Alpha float64
	// AvgComp is ω_DAG, the average computation cost scale. Zero means the
	// DefaultAvgComp of 100.
	AvgComp float64
}

// Alphas is the Topcuoglu shape-parameter value set.
var Alphas = []float64{0.5, 1.0, 2.0}

// DefaultAvgComp is the ω_DAG used when RandomParams.AvgComp is zero. The
// paper does not report its scale; 100 puts the random-sweep makespans in
// the paper's thousands range.
const DefaultAvgComp = 100

func (p RandomParams) avgComp() float64 {
	if p.AvgComp > 0 {
		return p.AvgComp
	}
	return DefaultAvgComp
}

func (p RandomParams) validate() error {
	if p.Jobs < 2 {
		return fmt.Errorf("workload: RandomParams.Jobs must be >= 2, got %d", p.Jobs)
	}
	if p.CCR < 0 || p.OutDegree <= 0 || p.Beta < 0 || p.Beta > 2 {
		return fmt.Errorf("workload: invalid RandomParams %+v", p)
	}
	return nil
}

// RandomDAG generates a parametric random workflow: a single-entry,
// single-exit levelled DAG in the style of the HEFT paper's generator.
// The number of levels is about sqrt(υ) (perturbed ±20%), jobs are spread
// over the levels, every non-entry job has at least one parent in an
// earlier level, and extra edges are added up to the out-degree bound with
// targets biased toward the next level. Edge weights are uniform on
// [0, 2·CCR·ω_DAG], so the realised mean communication cost is CCR·ω_DAG.
func RandomDAG(p RandomParams, r *rng.Source) (*dag.Graph, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	v := p.Jobs
	g := dag.New(fmt.Sprintf("random-v%d", v))

	// Level structure: entry level and exit level hold one job each; the
	// middle jobs spread over about sqrt(v)/α levels (mean width
	// α·sqrt(v), perturbed ±20%).
	alpha := p.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	mid := v - 2
	levels := 1
	if mid > 0 {
		levels = int(math.Round(math.Sqrt(float64(v)) / alpha * r.Uniform(0.8, 1.2)))
		if levels < 1 {
			levels = 1
		}
		if levels > mid {
			levels = mid
		}
	}
	// levelOf[i] for middle jobs: 1..levels; entry is level 0, exit is
	// levels+1.
	counts := make([]int, levels)
	for i := 0; i < levels; i++ {
		counts[i] = 1 // at least one job per middle level
	}
	for i := levels; i < mid; i++ {
		counts[r.IntN(levels)]++
	}

	ids := make([][]dag.JobID, levels+2)
	entry := g.AddJob("entry", "op-entry")
	ids[0] = []dag.JobID{entry}
	n := 0
	for l := 0; l < levels; l++ {
		for k := 0; k < counts[l]; k++ {
			n++
			ids[l+1] = append(ids[l+1], g.AddJob(fmt.Sprintf("j%d", n), fmt.Sprintf("op%d", n)))
		}
	}
	exit := g.AddJob("exit", "op-exit")
	ids[levels+1] = []dag.JobID{exit}

	commScale := 2 * p.CCR * p.avgComp()
	weight := func() float64 { return r.Uniform(0, commScale) }

	// Connectivity: every non-entry job gets one parent from the previous
	// level.
	for l := 1; l < len(ids); l++ {
		prev := ids[l-1]
		for _, j := range ids[l] {
			parent := prev[r.IntN(len(prev))]
			g.MustEdge(parent, j, weight())
		}
	}
	// Extra edges up to the out-degree bound, biased to the next level.
	maxOut := int(math.Max(1, math.Round(p.OutDegree*float64(v))))
	for l := 0; l < len(ids)-1; l++ {
		for _, u := range ids[l] {
			want := r.IntN(maxOut) + 1
			have := len(g.SuccEdges(u))
			for t := have; t < want; t++ {
				tl := l + 1
				if len(ids)-l > 2 && r.Float64() > 0.8 {
					tl = l + 2 + r.IntN(len(ids)-l-2)
				}
				cands := ids[tl]
				tgt := cands[r.IntN(len(cands))]
				if _, dup := g.EdgeData(u, tgt); dup {
					continue
				}
				g.MustEdge(u, tgt, weight())
			}
		}
	}
	// Every non-exit job needs a successor so the exit dominates the DAG.
	for _, j := range g.Jobs() {
		if j.ID != exit && len(g.SuccEdges(j.ID)) == 0 {
			g.MustEdge(j.ID, exit, weight())
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// CostModel selects how computation costs are attached to jobs.
type CostModel int

const (
	// PerJob samples an independent mean cost for every job — the random
	// DAG model, where each job is a distinct operation.
	PerJob CostModel = iota
	// PerOp samples one mean cost per distinct Op and one realisation per
	// (Op, resource) pair: all jobs running the same program on the same
	// resource cost the same. This reflects the paper's observation that
	// scientific workflows contain hundreds of jobs but only a handful of
	// unique operations (BLAST, WIEN2K, Montage).
	PerOp
)

// SampleCosts builds the ground-truth computation table for nRes resources
// using the β heterogeneity model: mean job cost w̄ uniform on
// [0, 2·avgComp] (floored at 1% of avgComp so costs stay positive), and
// per-resource cost uniform on [w̄(1−β/2), w̄(1+β/2)].
func SampleCosts(g *dag.Graph, nRes int, beta, avgComp float64, model CostModel, r *rng.Source) (*cost.Table, error) {
	return SampleCostsScaled(g, nRes, beta, avgComp, model, nil, r)
}

// SampleCostsScaled is SampleCosts with per-operation scale factors: an
// operation with scale s draws its mean cost from [0, 2·s·avgComp].
// Real applications mix heavyweight and bookkeeping operations — a
// blastall genome search dwarfs the FileBreaker that staged its input —
// and the relative weight of the parallelisable operations is what
// determines how much a workflow can gain from extra resources.
// Operations absent from scales default to 1.
func SampleCostsScaled(g *dag.Graph, nRes int, beta, avgComp float64, model CostModel, scales map[string]float64, r *rng.Source) (*cost.Table, error) {
	if nRes <= 0 {
		return nil, fmt.Errorf("workload: SampleCosts with %d resources", nRes)
	}
	if avgComp <= 0 {
		avgComp = DefaultAvgComp
	}
	floor := 0.01 * avgComp
	meanForOp := func(op string) float64 {
		scale := 1.0
		if s, ok := scales[op]; ok && s > 0 {
			scale = s
		}
		w := r.Uniform(0, 2*avgComp*scale)
		if w < floor {
			w = floor
		}
		return w
	}
	meanFor := func() float64 { return meanForOp("") }
	perturb := func(mean float64) float64 {
		// Each conversion rounds its operand: no fused multiply-add.
		w := r.Uniform(mean*(1-float64(beta/2)), mean*(1+float64(beta/2)))
		if w < floor {
			w = floor
		}
		return w
	}

	comp := make([][]float64, g.Len())
	switch model {
	case PerJob:
		for i := range comp {
			mean := meanFor()
			row := make([]float64, nRes)
			for j := range row {
				row[j] = perturb(mean)
			}
			comp[i] = row
		}
	case PerOp:
		opRow := make(map[string][]float64)
		for _, job := range g.Jobs() {
			row, ok := opRow[job.Op]
			if !ok {
				mean := meanForOp(job.Op)
				row = make([]float64, nRes)
				for j := range row {
					row[j] = perturb(mean)
				}
				opRow[job.Op] = row
			}
			comp[job.ID] = row
		}
	default:
		return nil, fmt.Errorf("workload: unknown cost model %d", model)
	}
	return cost.NewTable(comp)
}

// GridParams are the paper's Table 2 resource-change parameters.
type GridParams struct {
	// InitialResources is R, the time-0 pool size.
	InitialResources int
	// ChangeInterval is Δ; zero disables pool changes.
	ChangeInterval float64
	// ChangePct is δ, the per-event growth as a fraction of R.
	ChangePct float64
	// MaxEvents caps the number of arrival events. Zero derives a horizon
	// automatically from a makespan estimate of the workflow.
	MaxEvents int
}

// HorizonEventCap bounds the automatic MaxEvents derivation so the cost
// table for late arrivals stays small.
const HorizonEventCap = 16

// autoEvents estimates how many arrival events can matter: events later
// than a generous (2×) makespan estimate never influence any strategy.
func autoEvents(g *dag.Graph, p GridParams, avgComp, ccr float64) int {
	if p.ChangeInterval <= 0 || p.ChangePct <= 0 {
		return 0
	}
	levels := g.Levels()
	depth := float64(len(levels))
	cp := depth * (avgComp + float64(ccr*avgComp)) // rough critical path with transfers; rounded, no fused multiply-add
	work := float64(g.Len()) * avgComp / float64(p.InitialResources)
	est := math.Max(cp, work)
	n := int(math.Ceil(2 * est / p.ChangeInterval))
	if n < 1 {
		n = 1
	}
	if n > HorizonEventCap {
		n = HorizonEventCap
	}
	return n
}

// BuildScenario assembles a complete simulation case: a DAG, its dynamic
// pool per gp, and a cost table covering every resource that ever joins.
func BuildScenario(g *dag.Graph, p GridParams, beta, avgComp, ccr float64, model CostModel, r *rng.Source) (*Scenario, error) {
	return BuildScenarioScaled(g, p, beta, avgComp, ccr, model, nil, r)
}

// BuildScenarioScaled is BuildScenario with per-operation cost scales (see
// SampleCostsScaled).
func BuildScenarioScaled(g *dag.Graph, p GridParams, beta, avgComp, ccr float64, model CostModel, scales map[string]float64, r *rng.Source) (*Scenario, error) {
	events := p.MaxEvents
	if events == 0 {
		events = autoEvents(g, p, avgComp, ccr)
	}
	dm := grid.DynamicModel{
		Initial:   p.InitialResources,
		Interval:  p.ChangeInterval,
		ChangePct: p.ChangePct,
		MaxEvents: events,
	}
	pool, err := dm.Build()
	if err != nil {
		return nil, err
	}
	table, err := SampleCostsScaled(g, pool.Size(), beta, avgComp, model, scales, r)
	if err != nil {
		return nil, err
	}
	return &Scenario{Graph: g, Table: table, Pool: pool}, nil
}

// RandomScenario generates one full random-DAG case from the paper's
// parameter space.
func RandomScenario(p RandomParams, gp GridParams, r *rng.Source) (*Scenario, error) {
	g, err := RandomDAG(p, r)
	if err != nil {
		return nil, err
	}
	return BuildScenario(g, gp, p.Beta, p.avgComp(), p.CCR, PerJob, r)
}
