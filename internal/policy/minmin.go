package policy

import (
	"fmt"

	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/schedule"
	"aheft/internal/sim"
)

// Heuristic selects the mapping rule a just-in-time policy uses at each
// decision point (the paper's §4.2 dynamic baseline family).
type Heuristic int

const (
	// MinMin maps first the job whose best completion time is smallest —
	// favouring short jobs, the paper's dynamic baseline.
	MinMin Heuristic = iota
	// MaxMin maps first the job whose best completion time is largest —
	// favouring long jobs.
	MaxMin
	// Sufferage maps first the job that would suffer most from losing its
	// best resource (largest second-best minus best completion time).
	Sufferage
)

// String returns the heuristic's conventional display name.
func (h Heuristic) String() string {
	switch h {
	case MinMin:
		return "Min-Min"
	case MaxMin:
		return "Max-Min"
	case Sufferage:
		return "Sufferage"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// RegistryName returns the lower-case policy-registry key for the
// heuristic (the single source of the heuristic → policy-name mapping).
func (h Heuristic) RegistryName() string {
	switch h {
	case MaxMin:
		return "maxmin"
	case Sufferage:
		return "sufferage"
	default:
		return "minmin"
	}
}

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
// DispatchBest; the three heuristics are orderings over its output.
type jitPolicy struct {
	h Heuristic
}

func (p jitPolicy) Name() string   { return p.h.RegistryName() }
func (p jitPolicy) Adaptive() bool { return false }

// JustInTime marks the policy's Plan as a dispatch simulation whose
// semantics the event-driven enactment must not re-enact (see the
// JustInTime interface).
func (jitPolicy) JustInTime() bool { return true }

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
		k:        k,
		g:        g,
		h:        p.h,
		simr:     sim.New(),
		idle:     make([]bool, pool.Size()),
		assigned: make([]bool, n),
		resOf:    make([]grid.ID, n),
		pending:  make([]int, n),
		sched:    schedule.New(),
	}
	for _, j := range g.Jobs() {
		st.pending[j.ID] = len(g.Preds(j.ID))
		st.resOf[j.ID] = grid.NoResource
	}
	for _, r := range pool.Initial() {
		st.idle[r.ID] = true
	}
	for _, t := range pool.ChangeTimes() {
		t := t
		st.simr.At(t, sim.PriResourceChange, func() {
			for _, r := range pool.ArrivalsAt(t) {
				st.idle[r.ID] = true
			}
			st.dispatch()
		})
	}
	st.simr.At(0, sim.PriDispatch, st.dispatch)
	st.simr.Run()
	if st.nDone != n {
		return nil, fmt.Errorf("minmin: deadlock — %d of %d jobs finished", st.nDone, n)
	}
	return st.sched, nil
}

func (jitPolicy) Replan(*kernel.Kernel, []grid.Resource, *kernel.State, Options) (*schedule.Schedule, error) {
	return nil, nil // arrivals are consumed inside the Plan simulation
}

// jitState is the dispatch simulation the just-in-time policies share.
// Job and resource state is dense (IDs are dense by construction), so the
// simulation allocates only its scratch slices once.
type jitState struct {
	k    *kernel.Kernel
	g    *dag.Graph
	h    Heuristic
	simr *sim.Simulator

	idle     []bool // by resource ID
	nDone    int    // finished-job count (deadlock detection)
	assigned []bool
	resOf    []grid.ID // by job ID; NoResource until dispatched
	pending  []int     // unfinished predecessor count
	sched    *schedule.Schedule

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
		if !st.assigned[j.ID] && st.pending[j.ID] == 0 {
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
	now := st.simr.Now()
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
			r, done, second := st.k.DispatchBest(j, idle, now, st.resOf)
			bests[i] = bestOf{res: r, done: done, second: second}
		}
		pick := 0
		for i := 1; i < len(ready); i++ {
			switch st.h {
			case MinMin:
				if bests[i].done < bests[pick].done {
					pick = i
				}
			case MaxMin:
				if bests[i].done > bests[pick].done {
					pick = i
				}
			case Sufferage:
				if bests[i].second-bests[i].done > bests[pick].second-bests[pick].done {
					pick = i
				}
			}
		}
		st.assign(ready[pick], bests[pick].res, bests[pick].done)
	}
}

// assign binds job j to resource r until done.
func (st *jitState) assign(j dag.JobID, r grid.ID, done float64) {
	st.assigned[j] = true
	st.resOf[j] = r
	st.idle[r] = false
	w := st.k.Estimator().Comp(j, r)
	st.sched.Assign(schedule.Assignment{Job: j, Resource: r, Start: done - w, Finish: done})
	st.simr.At(done, sim.PriJobFinish, func() {
		st.nDone++
		st.idle[r] = true
		for _, e := range st.g.Succs(j) {
			st.pending[e.To]--
		}
		st.dispatch()
	})
}
