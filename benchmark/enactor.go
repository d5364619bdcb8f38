package main

import (
	"fmt"
	"math"
	"sort"

	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/rng"
	"aheft/internal/wire"
)

// truth is what one enactment of a variant actually experiences: the
// measured runtime of every (job, resource) pair and the time each
// resource really joins. It is drawn once, up front, so the adaptive run
// and the never-reschedule baseline see the same grid whatever order
// they query it in.
type truth struct {
	nRes   int
	dur    []float64 // [job*nRes+res]
	joinAt []float64 // per resource; 0 for the time-0 pool
}

// drawTruth perturbs each estimate by a factor in [1−noise, 1+noise] and
// each planned late arrival by a factor in [1−churn, 1+churn].
func drawTruth(v *variant, noise, churn float64, r *rng.Source) *truth {
	n, nRes := v.jobs(), v.resources()
	t := &truth{nRes: nRes, dur: make([]float64, n*nRes), joinAt: make([]float64, nRes)}
	for j := 0; j < n; j++ {
		for k := 0; k < nRes; k++ {
			f := 1.0
			if noise > 0 {
				f = r.Uniform(1-noise, 1+noise)
			}
			t.dur[j*nRes+k] = v.sc.Table.Comp(dag.JobID(j), grid.ID(k)) * f
		}
	}
	for _, a := range v.sc.Pool.Arrivals() {
		at := a.Time
		if at > 0 && churn > 0 {
			at *= r.Uniform(1-churn, 1+churn)
		}
		t.joinAt[a.Resource.ID] = at
	}
	return t
}

const (
	jobPending uint8 = iota
	jobRunning
	jobFinished
)

// enactor plays the Execution Manager against the daemon's current plan:
// a job starts at its planned start pushed back by any lateness of its
// predecessors or of the resource it waits for, runs for its true
// duration, and every finish or resource join closes one report batch
// (the starts since the previous batch ride in front of it, so the
// daemon knows what is pinned before it evaluates). It is a load model,
// not a second scheduler: placement is always the daemon's.
type enactor struct {
	v     *variant
	truth *truth
	n     int
	// exact switches not-yet-started jobs to their estimated runtimes; the
	// fast-forward after the timed window uses it so the tail of an
	// in-flight workflow triggers almost no evaluations.
	exact bool

	plan      []wire.Assignment // by job
	phase     []uint8
	start     []float64
	finish    []float64
	waitPreds []int     // unfinished predecessors per job
	queue     [][]int   // per resource: pending jobs in planned order
	running   []int     // per resource: running job or -1
	freeAt    []float64 // per resource: finish of the last job run there
	joined    []bool
	joins     []int // late resources in true join order
	nextJoin  int
	nFinished int
	clock     float64
	starts    []wire.ReportEvent // starts not yet reported
}

func newEnactor(v *variant, tr *truth, initial *wire.Plan) *enactor {
	n, nRes := v.jobs(), v.resources()
	e := &enactor{
		v: v, truth: tr, n: n,
		phase: make([]uint8, n), start: make([]float64, n), finish: make([]float64, n),
		waitPreds: make([]int, n),
		queue:     make([][]int, nRes), running: make([]int, nRes), freeAt: make([]float64, nRes),
		joined: make([]bool, nRes),
	}
	g := v.sc.Graph
	for j := 0; j < n; j++ {
		e.waitPreds[j] = len(g.Preds(dag.JobID(j)))
	}
	for r := 0; r < nRes; r++ {
		e.running[r] = -1
		if tr.joinAt[r] <= 0 {
			e.joined[r] = true
		} else {
			e.joins = append(e.joins, r)
		}
	}
	sort.Slice(e.joins, func(a, b int) bool {
		ra, rb := e.joins[a], e.joins[b]
		if tr.joinAt[ra] != tr.joinAt[rb] {
			return tr.joinAt[ra] < tr.joinAt[rb]
		}
		return ra < rb
	})
	e.adopt(initial)
	return e
}

// adopt installs a (validated) plan: pending jobs are re-queued on their
// new resources in planned order; running and finished jobs are history.
func (e *enactor) adopt(p *wire.Plan) {
	if e.plan == nil {
		e.plan = make([]wire.Assignment, e.n)
	}
	for _, a := range p.Assignments {
		e.plan[a.Job] = a
	}
	for r := range e.queue {
		e.queue[r] = e.queue[r][:0]
	}
	for j := 0; j < e.n; j++ {
		if e.phase[j] == jobPending {
			r := e.plan[j].Resource
			e.queue[r] = append(e.queue[r], j)
		}
	}
	for r := range e.queue {
		q := e.queue[r]
		sort.Slice(q, func(a, b int) bool {
			sa, sb := e.plan[q[a]].Start, e.plan[q[b]].Start
			if sa != sb {
				return sa < sb
			}
			return q[a] < q[b]
		})
	}
}

func (e *enactor) done() bool { return e.nFinished == e.n }

// makespan is the measured completion time so far.
func (e *enactor) makespan() float64 {
	m := 0.0
	for j := 0; j < e.n; j++ {
		if e.phase[j] == jobFinished && e.finish[j] > m {
			m = e.finish[j]
		}
	}
	return m
}

// startTime is when the head of a resource's queue can really begin.
func (e *enactor) startTime(j, r int) float64 {
	late := 0.0
	for _, ed := range e.v.sc.Graph.Preds(dag.JobID(j)) {
		if d := e.finish[ed.From] - e.plan[ed.From].Finish; d > late {
			late = d
		}
	}
	t := e.plan[j].Start + late
	t = math.Max(t, e.freeAt[r])
	t = math.Max(t, e.truth.joinAt[r])
	return math.Max(t, e.clock)
}

// next advances the simulated grid to the next reportable occurrence — a
// job finish or a resource join — and returns the batch to POST: the
// queued starts followed by that event. It returns nil once every job has
// finished.
func (e *enactor) next() []wire.ReportEvent {
	for !e.done() {
		// Earliest of: a running job finishing, a late resource joining,
		// a ready queue head starting. Ties resolve finish, join, start,
		// so a batch never reports a start the daemon could not yet place.
		const (
			evNone = iota
			evFinish
			evJoin
			evStart
		)
		kind, at, res, job := evNone, math.Inf(1), -1, -1
		for r, j := range e.running {
			if j >= 0 && e.finish[j] < at {
				kind, at, res, job = evFinish, e.finish[j], r, j
			}
		}
		if e.nextJoin < len(e.joins) {
			r := e.joins[e.nextJoin]
			if t := e.truth.joinAt[r]; t < at {
				kind, at, res = evJoin, t, r
			}
		}
		for r, q := range e.queue {
			if len(q) == 0 || !e.joined[r] || e.running[r] >= 0 || e.waitPreds[q[0]] > 0 {
				continue
			}
			if t := e.startTime(q[0], r); t < at {
				kind, at, res, job = evStart, t, r, q[0]
			}
		}
		switch kind {
		case evNone:
			panic(fmt.Sprintf("enactor: %s stalled with %d of %d jobs finished", e.v.name, e.nFinished, e.n))
		case evStart:
			e.clock = at
			e.queue[res] = e.queue[res][1:]
			e.phase[job] = jobRunning
			e.start[job] = at
			dur := e.truth.dur[job*e.truth.nRes+res]
			if e.exact {
				dur = e.v.sc.Table.Comp(dag.JobID(job), grid.ID(res))
			}
			e.finish[job] = at + dur
			e.running[res] = job
			e.starts = append(e.starts, wire.ReportEvent{
				Kind: wire.ReportJobStarted, Time: at, Job: job, Resource: res,
			})
		case evFinish:
			e.clock = at
			e.phase[job] = jobFinished
			e.running[res] = -1
			e.freeAt[res] = at
			e.nFinished++
			for _, ed := range e.v.sc.Graph.Succs(dag.JobID(job)) {
				e.waitPreds[ed.To]--
			}
			return e.flush(wire.ReportEvent{
				Kind: wire.ReportJobFinished, Time: at, Job: job, Resource: res,
				Duration: at - e.start[job],
			})
		case evJoin:
			e.clock = at
			e.joined[res] = true
			e.nextJoin++
			return e.flush(wire.ReportEvent{Kind: wire.ReportResourceJoin, Time: at, Resource: res})
		}
	}
	return nil
}

func (e *enactor) flush(ev wire.ReportEvent) []wire.ReportEvent {
	batch := append(e.starts, ev)
	e.starts = nil
	return batch
}

// rest drains the enactment into one batch: every remaining event in time
// order, under exact runtimes. The enactor keeps its current plan — the
// daemon may replan inside the batch, and tolerates an enactor that did
// not hear of it.
func (e *enactor) rest() []wire.ReportEvent {
	e.exact = true
	var all []wire.ReportEvent
	for b := e.next(); b != nil; b = e.next() {
		all = append(all, b...)
	}
	return all
}

// enactStatic runs a plan to completion with nobody listening — the
// never-reschedule baseline under the same truth.
func enactStatic(v *variant, tr *truth, initial *wire.Plan) float64 {
	e := newEnactor(v, tr, initial)
	for e.next() != nil {
	}
	return e.makespan()
}

// rngFor derives the stream for the n-th use of a label under a run seed.
func rngFor(seed uint64, label string, n int) *rng.Source {
	return rng.New(seed).Split(fmt.Sprintf("%s-%d", label, n))
}
