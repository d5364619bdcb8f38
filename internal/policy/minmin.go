package policy

import (
	"fmt"
	"math"
	"slices"

	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/schedule"
)

// jitPolicy is the dynamic just-in-time baseline of the paper's §4.2, in
// the style of DAGMan-like executors the paper classifies as "local
// just-in-time decision" systems.
//
// Its Plan is the full dispatch simulation: a job is considered for
// mapping only once it is ready (all predecessors finished), is bound only
// to a currently idle resource, and its input files are transferred only
// after the binding decision (§4.1 assumption 2) — the bound resource
// stalls while inputs stream in. Resource arrivals are consumed inside the
// simulation as the pool timeline unfolds, so the policy is not adaptive
// in the Fig. 2 sense: there is no standing schedule to revise, hence
// Replan proposes nothing. The two structural penalties relative to a
// full-ahead static plan — no communication/computation overlap, and no
// critical-path awareness — are what make the dynamic strategy lose by a
// large factor on data-intensive workflows, reproducing the paper's
// Min-Min ≈ 3× HEFT headline.
//
// The per-(job, resource) completion evaluation is the kernel's
// DispatchBest; the three heuristics (Min-Min, Max-Min, Sufferage) are
// orderings over its output.
type jitPolicy struct {
	name string
	// before reports whether a ready job whose best dispatch is a maps
	// ahead of one whose best dispatch is b.
	before func(a, b bestOf) bool
}

// minMinBefore maps first the job whose best completion time is smallest
// — favouring short jobs, the paper's dynamic baseline.
func minMinBefore(a, b bestOf) bool { return a.done < b.done }

// maxMinBefore maps first the job whose best completion time is largest —
// favouring long jobs.
func maxMinBefore(a, b bestOf) bool { return a.done > b.done }

// sufferageBefore maps first the job that would suffer most from losing
// its best resource (largest second-best minus best completion time).
func sufferageBefore(a, b bestOf) bool { return a.second-a.done > b.second-b.done }

func (p jitPolicy) Name() string   { return p.name }
func (p jitPolicy) Adaptive() bool { return false }

// JustInTime marks the policy's Plan as a dispatch simulation whose
// semantics the event-driven enactment must not re-enact (see the
// JustInTime interface).
func (jitPolicy) JustInTime() bool { return true }

// Plan runs the dispatch simulation. It starts with a dispatch at time 0
// and then takes events in time order. At one instant, every job
// finishing goes first, in the order the jobs were bound, each followed
// by a dispatch; the resources joining then become idle, followed by one
// dispatch.
func (p jitPolicy) Plan(k *kernel.Kernel, pool *grid.Pool, opts Options) (*schedule.Schedule, error) {
	g := k.Graph()
	if g == nil || g.Len() == 0 {
		return nil, fmt.Errorf("minmin: empty workflow")
	}
	if pool == nil || len(pool.Initial()) == 0 {
		return nil, fmt.Errorf("minmin: no resources at time 0")
	}
	n := g.Len()
	st := &jitState{
		k:       k,
		g:       g,
		before:  p.before,
		idle:    make([]bool, pool.Size()),
		resOf:   make([]grid.ID, n),
		pending: make([]int, n),
		sched:   schedule.New(),
	}
	for _, j := range g.Jobs() {
		st.pending[j.ID] = len(g.Preds(j.ID))
		st.resOf[j.ID] = grid.NoResource
	}
	for _, r := range pool.Initial() {
		st.idle[r.ID] = true
	}
	st.dispatch()
	changes := pool.ChangeTimes()
	for {
		next := -1 // the running job finishing first, the earliest bound on a tie
		for i, a := range st.running {
			if next < 0 || a.Finish < st.running[next].Finish {
				next = i
			}
		}
		switch {
		case next >= 0 && (len(changes) == 0 || st.running[next].Finish <= changes[0]):
			a := st.running[next]
			st.running = slices.Delete(st.running, next, next+1)
			st.now = a.Finish
			st.idle[a.Resource] = true
			for _, e := range g.Succs(a.Job) {
				st.pending[e.To]--
			}
		case len(changes) > 0:
			st.now = changes[0]
			changes = changes[1:]
			for _, r := range pool.ArrivalsAt(st.now) {
				st.idle[r.ID] = true
			}
		default:
			if st.sched.Len() != n {
				return nil, fmt.Errorf("minmin: deadlock — %d of %d jobs finished", st.sched.Len(), n)
			}
			return st.sched, nil
		}
		st.dispatch()
	}
}

func (jitPolicy) Replan(*kernel.Kernel, []grid.Resource, *kernel.State, Options) (*schedule.Schedule, error) {
	return nil, nil // arrivals are consumed inside the Plan simulation
}

// jitState is the dispatch simulation the just-in-time policies share.
// Job and resource state is dense (IDs are dense by construction), so the
// simulation allocates only its scratch slices once.
type jitState struct {
	k      *kernel.Kernel
	g      *dag.Graph
	before func(a, b bestOf) bool
	now    float64

	idle    []bool                // by resource ID
	resOf   []grid.ID             // by job ID; NoResource until dispatched
	pending []int                 // unfinished predecessor count
	running []schedule.Assignment // bound, unfinished jobs in binding order
	sched   *schedule.Schedule

	ready    []dag.JobID // scratch: ready jobs, JobID order
	idleList []grid.ID   // scratch: idle resources, ID order
	bests    []bestOf    // scratch: per-ready-job best dispatch
}

type bestOf struct {
	res    grid.ID
	done   float64
	second float64
}

// readySet refills st.ready with unmapped jobs whose predecessors have
// all finished, in JobID order for determinism.
func (st *jitState) readySet() []dag.JobID {
	st.ready = st.ready[:0]
	for _, j := range st.g.Jobs() {
		if st.resOf[j.ID] == grid.NoResource && st.pending[j.ID] == 0 {
			st.ready = append(st.ready, j.ID)
		}
	}
	return st.ready
}

// idleResources refills st.idleList with the currently idle resources in
// ID order.
func (st *jitState) idleResources() []grid.ID {
	st.idleList = st.idleList[:0]
	for r, ok := range st.idle {
		if ok {
			st.idleList = append(st.idleList, grid.ID(r))
		}
	}
	return st.idleList
}

// dispatch binds ready jobs to idle resources, one (job, resource) pair at
// a time per the heuristic, until either set drains.
func (st *jitState) dispatch() {
	for {
		ready := st.readySet()
		idle := st.idleResources()
		if len(ready) == 0 || len(idle) == 0 {
			return
		}
		if cap(st.bests) < len(ready) {
			st.bests = make([]bestOf, len(ready))
		}
		bests := st.bests[:len(ready)]
		for i, j := range ready {
			r, done, second := st.k.DispatchBest(j, idle, st.now, st.resOf)
			bests[i] = bestOf{res: r, done: done, second: second}
		}
		pick := 0
		for i := 1; i < len(ready); i++ {
			if st.before(bests[i], bests[pick]) {
				pick = i
			}
		}
		st.assign(ready[pick], bests[pick].res, bests[pick].done)
	}
}

// assign binds job j to resource r until done. A finish at a non-finite
// time, or before the binding instant, is a logic error worth failing
// loudly on: the loop would otherwise take events out of order.
func (st *jitState) assign(j dag.JobID, r grid.ID, done float64) {
	if math.IsNaN(done) || math.IsInf(done, 0) || done < st.now {
		panic(fmt.Sprintf("minmin: job %d bound at %g would finish at %g", j, st.now, done))
	}
	st.resOf[j] = r
	st.idle[r] = false
	w := st.k.Estimator().Comp(j, r)
	a := schedule.Assignment{Job: j, Resource: r, Start: done - w, Finish: done}
	st.sched.Assign(a)
	st.running = append(st.running, a)
}
