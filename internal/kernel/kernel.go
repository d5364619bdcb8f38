// Package kernel is the single shared scheduling kernel every strategy in
// this repository runs on. The paper's inner loop — upward ranks over the
// unfinished jobs, FEA/EST/EFT evaluation (Eqs. 1–3), EFT-minimising
// placement with insertion-based slot search — used to be implemented
// three separate times (static HEFT, the AHEFT rescheduler, and the
// just-in-time Min-Min family's completion evaluation). This package owns
// that machinery once:
//
//   - Upward ranks are computed per (graph, resource set) and cached: a
//     Kernel is bound to one graph and one estimator, and the rank vector
//     is invalidated only when the resource set changes (the pool grew) —
//     a new estimator means a new Kernel.
//   - FEA/EST/EFT run over dense, job-indexed state (State) instead of
//     per-call maps, and every row the slot search reads — a resource or
//     a transfer channel — is one timeline of coalesced busy blocks
//     (timeline.go), searched by gaps. A classic job's inputs are split
//     once per job, not once per (job, resource): finished producers keep
//     Eq. 1's per-resource ledger lookup, placed and pinned ones become
//     arrivals — on their resource at SFT, elsewhere at SFT + e.Data
//     (cost.Comm) — walked latest first until none can raise the ready
//     time. The floats are FEA's; only finished inputs are looked up per
//     resource.
//   - All placement scratch (timelines, candidate assignments, rank and
//     order buffers) is owned by the Kernel and reused across calls, so
//     the steady-state inner loop of a reschedule performs zero heap
//     allocations; only the returned *schedule.Schedule is freshly built.
//     A short-lived kernel's scratch, all of it, and its States' ledgers
//     go back to package pools on Release, for the next workflow's kernel.
//
// Layering: model (dag/grid/cost/schedule) → kernel (this package) →
// policy (orderings over the kernel) → engine (planner) → facade (root).
// The kernel deliberately knows nothing about pools, events or policies;
// it answers "place these jobs over these resources given this execution
// state" and nothing else.
//
// A Kernel (and its States) is NOT safe for concurrent use: the engine
// creates one Kernel per workflow run. Policies stay stateless and
// shareable — they receive the run's Kernel as an argument.
package kernel

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/schedule"
)

// Options configures a placement pass. It is the kernel-level subset of
// the policy options.
type Options struct {
	// NoInsertion disables HEFT's insertion-based slot policy.
	NoInsertion bool
	// TieWindow, when positive, treats adjacent jobs in the rank list
	// whose upward ranks differ by less than TieWindow × (the larger of
	// the two) as order-ambiguous and additionally evaluates the schedule
	// with each such pair swapped, keeping the best result. With
	// TieWindow ≈ 0.05 this recovers the paper's Fig. 5(b) reschedule
	// (makespan 76), which pure greedy placement misses. Zero disables
	// exploration (paper-faithful Fig. 3 greedy).
	TieWindow float64
}

// VersionedEstimator is a cost estimator that can report whether its
// answers may have changed: two equal EstimateVersion reads bracket a
// window in which every Comp/Comm answer was stable. The kernel uses it
// to keep the rank cache honest under history-sharpened estimates.
type VersionedEstimator interface {
	cost.Estimator
	EstimateVersion() uint64
}

// Kernel binds one workflow graph to one cost estimator and owns every
// reusable buffer of the scheduling inner loop.
type Kernel struct {
	g   *dag.Graph
	est cost.Estimator
	n   int

	// Rank cache: ranks and order (in scratch) are valid for the exact
	// resource set rankRS (in scratch too) at estimator version rankVer
	// (VersionedEstimator only; unversioned estimators rely on explicit
	// InvalidateRanks).
	rankOK  bool
	rankVer uint64

	// Placement scratch, reused across calls and, through Release, by the
	// next kernel. The four n-sized candidate arrays and Price's pending
	// list are cut from its slab.
	*scratch
	zeroPlaced []schedule.Assignment // all-unplaced template
	basePlaced []schedule.Assignment // pinned assignments; Resource == NoResource otherwise
	placed     []schedule.Assignment // working candidate placements (includes pinned)
	bestPlaced []schedule.Assignment // best candidate so far
	histMax    float64               // max finish over hist

	// Shared-grid contention: foreign reservations merged into the slot
	// search as busy intervals (see SetOccupancy).
	occ     Occupancy
	busyBuf []Busy

	// Data-aware scheduling (data.go): nil dataM selects the classic
	// point-to-point model; every data branch is nil-guarded so the
	// no-files path stays bit-identical to the pre-data kernel.
	dataM      *data.Model
	fileOfEdge []int      // dense edge index → file index, -1 for plain edges
	commOfEdge []float64  // dense edge index → rank-phase communication weight
	chBase     [][]block  // per channel: foreign transfer reservations, sorted
	chans      []timeline // per channel: base plus the current pass's transfers
	chIdxBuf   []int
	xferBuf    []probeXfer // per-(job,resource) probe scratch
	xferBest   []probeXfer // probe of the job's best fitting resource so far
	xferOver   []probeXfer // probe of its best storage-overflow fallback
	probeAt    []int       // [file]: its index in xferBuf, if xferBuf holds it
	workXfers  []schedule.Transfer
	bestXfers  []schedule.Transfer
	storeUsed  []float64 // per resource: data staged by the current pass
	fAvail     []float64 // [file*fStride+res]: pass-local staged availability
	fAvailEp   []uint32
	fEpoch     uint32
	fStride    int

	// Pricing scratch (price.go).
	pendOf  *schedule.Schedule    // the plan pend orders
	pend    []schedule.Assignment // its pending jobs, in pricing order
	chFloor []chanFloor           // per channel

	// timing is the wall-clock phase split of the last Reschedule —
	// telemetry only, never an input to scheduling decisions (see
	// LastTiming).
	timing Timing

	empty *State // lazily created zero state backing Static
}

// Timing is the wall-clock phase split of the last Reschedule: the
// upward-rank phase (near zero when the rank cache is warm) versus
// everything after it (candidate placement). Pure
// telemetry — the observability layer rolls it into evaluate spans; a
// replayed run reproduces the schedules bit-identically regardless of
// what these read.
type Timing struct {
	RankMs  float64
	PlaceMs float64
}

// LastTiming returns the phase timing of the last Reschedule.
func (k *Kernel) LastTiming() Timing { return k.timing }

// New returns a kernel for scheduling g under est. A graph with jobs must
// be validated: the kernel reads its layout, in which edge (m→j), the i-th
// entry of g.Preds(j), has the dense index g.PredBase(j)+i that the
// transfer ledger (State) is keyed by.
func New(g *dag.Graph, est cost.Estimator) *Kernel {
	if g.Len() > 0 && g.TopoOrder() == nil {
		panic(fmt.Sprintf("kernel: graph %q is not validated", g.Name()))
	}
	n := g.Len()
	k := &Kernel{g: g, est: est, n: n}
	k.scratch = scratches.Get().(*scratch)
	k.slab, k.ranks, k.order = sized(k.slab, 5*n), sized(k.ranks, n), sized(k.order, n)
	a := k.slab
	k.zeroPlaced, k.basePlaced, k.placed, k.bestPlaced = a[:n:n], a[n:2*n:2*n], a[2*n:3*n:3*n], a[3*n:4*n:4*n]
	k.pend = a[4*n : 4*n : 5*n]
	for j := range k.zeroPlaced {
		k.zeroPlaced[j] = schedule.Assignment{Job: dag.JobID(j), Resource: grid.NoResource}
	}
	return k
}

// scratch is the working memory of a kernel's passes: the candidate slab,
// the classic pass's input split, the rank vector and order, the lists of
// jobs to place, of history and of the final assignments, and every
// resource's base row and timeline. Nothing in it means anything from one
// call to the next — each use truncates or overwrites what it reads — so
// a new kernel can run on a released one's.
type scratch struct {
	slab      []schedule.Assignment
	in        inputs
	ranks     []float64             // by JobID
	order     []dag.JobID           // nonincreasing rank
	rankRS    []grid.ID             // the resource set ranks were computed over
	base      []dag.JobID           // jobs to place, rank order
	alt       []dag.JobID           // tie-window swapped order
	hist      []schedule.Assignment // finished+pinned assignments for the final schedule
	out       []schedule.Assignment // final assignment list handed to schedule.FromAssignments
	baseTL    [][]block             // per resource: history (finished+pinned) intervals, sorted
	rows      []timeline            // per resource: base plus the current candidate's placements
	tlTouched []grid.ID             // rows filled by the previous prepHistory (may repeat)
}

// scratches holds released kernels' scratch.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// Release hands the kernel's scratch, every array of it, and its Static
// state to the package pools for the next kernel; k must not be used
// afterwards. Schedules it returned stay valid: they share nothing with
// the kernel.
func (k *Kernel) Release() {
	scratches.Put(k.scratch)
	k.scratch = nil
	if k.empty != nil {
		k.empty.Release()
		k.empty = nil
	}
}

// Graph returns the workflow the kernel is bound to.
func (k *Kernel) Graph() *dag.Graph { return k.g }

// Estimator returns the cost estimator the kernel is bound to.
func (k *Kernel) Estimator() cost.Estimator { return k.est }

// edgeIndex returns the dense index of edge (from → to), or -1 if the
// edge does not exist: a binary search of Preds(to), sorted by From.
func (k *Kernel) edgeIndex(from, to dag.JobID) int {
	preds := k.g.Preds(to)
	i := sort.Search(len(preds), func(i int) bool { return preds[i].From >= from })
	if i < len(preds) && preds[i].From == from {
		return k.g.PredBase(to) + i
	}
	return -1
}

// --- Upward ranks -----------------------------------------------------

// Ranks returns the upward rank of every job (indexed by JobID) and the
// jobs in nonincreasing-rank order, over the resource set rs (eqs. 5–6 of
// the HEFT paper: average computation plus the largest average
// communication + successor rank). Both slices are owned by the kernel
// and valid until the next Ranks call with a different resource set;
// callers must not mutate them.
//
// The result is cached: recomputation happens only when rs differs from
// the previous call's resource set. Rank ties break on ascending JobID,
// which makes the order unique and deterministic regardless of the sort
// algorithm.
func (k *Kernel) Ranks(rs []grid.Resource) ([]float64, []dag.JobID, error) {
	if len(rs) == 0 {
		return nil, nil, fmt.Errorf("kernel: empty resource set")
	}
	if k.rankOK && k.sameRS(rs) && k.ranksFresh() {
		return k.ranks, k.order, nil
	}
	// In reverse topological order every successor of j has already pushed
	// its communication weight + rank into ranks[j], edge by dense index, so
	// ranks[j] holds the inner max of Eq. 6 when j's turn comes.
	clear(k.ranks)
	topo := k.g.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- {
		j := topo[i]
		rank := cost.MeanComp(k.est, j, rs) + k.ranks[j]
		k.ranks[j] = rank
		eBase := k.g.PredBase(j)
		for i, e := range k.g.Preds(j) {
			c := cost.MeanComm(e)
			if k.commOfEdge != nil {
				c = k.commOfEdge[eBase+i]
			}
			if v := c + rank; v > k.ranks[e.From] {
				k.ranks[e.From] = v
			}
		}
	}
	orderInto(k.ranks, k.order)
	k.rankRS = k.rankRS[:0]
	for _, r := range rs {
		k.rankRS = append(k.rankRS, r.ID)
	}
	if v, ok := k.est.(VersionedEstimator); ok {
		k.rankVer = v.EstimateVersion()
	}
	k.rankOK = true
	return k.ranks, k.order, nil
}

// ranksFresh reports whether the cached ranks are still valid under the
// estimator: a VersionedEstimator invalidates them by advancing its
// version; an unversioned estimator is assumed stable between explicit
// InvalidateRanks calls (the pre-existing contract).
func (k *Kernel) ranksFresh() bool {
	v, ok := k.est.(VersionedEstimator)
	if !ok {
		return true
	}
	return v.EstimateVersion() == k.rankVer
}

func (k *Kernel) sameRS(rs []grid.Resource) bool {
	if len(rs) != len(k.rankRS) {
		return false
	}
	for i, r := range rs {
		if r.ID != k.rankRS[i] {
			return false
		}
	}
	return true
}

// InvalidateRanks drops the rank cache; for callers whose estimator
// changed underneath the kernel (the supported path is a fresh Kernel).
func (k *Kernel) InvalidateRanks() { k.rankOK = false }

// orderInto fills out (len(ranks) long) with every JobID sorted by the
// HEFT list order: nonincreasing rank, ascending JobID on ties. The
// tie-break makes the order a unique total order, so any sort produces
// the same permutation — an unstable one without reflection too.
func orderInto(ranks []float64, out []dag.JobID) {
	for i := range out {
		out[i] = dag.JobID(i)
	}
	slices.SortFunc(out, func(a, b dag.JobID) int {
		if c := cmp.Compare(ranks[b], ranks[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// --- Placement --------------------------------------------------------

// Static computes a full static HEFT schedule of the kernel's graph over
// rs: every resource available from time 0, no execution history — the
// greedy Reschedule over the empty state at clock 0, which is the §3.4
// degeneration ("AHEFT is identical to HEFT when clock = 0").
//
// Static deliberately ignores opts.TieWindow: the paper's initial plan
// is plain HEFT, and the engine relies on HEFT and AHEFT producing the
// same initial schedule (Result.InitialMakespan is "identical by
// construction"). Tie-window exploration applies to reschedules only.
func (k *Kernel) Static(rs []grid.Resource, opts Options) (*schedule.Schedule, error) {
	return k.Reschedule(rs, nil, Options{NoInsertion: opts.NoInsertion})
}

// Reschedule implements procedure schedule(S0, P, H) of the paper's
// Fig. 3 over the execution state st: upward ranks over the unfinished
// jobs, then EFT-minimising placement over rs, with finished jobs keeping
// their actual intervals and pinned running jobs their current
// assignments. A nil st means the empty state at clock 0. The returned
// schedule covers every job of the graph. With opts.TieWindow > 0
// near-tie rank pairs are additionally evaluated swapped and the best
// candidate wins.
func (k *Kernel) Reschedule(rs []grid.Resource, st *State, opts Options) (*schedule.Schedule, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("kernel: empty resource set")
	}
	st = k.orEmpty(st)
	began := time.Now()
	ranks, order, err := k.Ranks(rs)
	if err != nil {
		return nil, err
	}
	rankDone := time.Now()
	k.timing = Timing{RankMs: rankDone.Sub(began).Seconds() * 1e3}
	base := k.base[:0]
	for _, job := range order {
		if st.finRes[job] != grid.NoResource || st.isPin[job] {
			continue
		}
		base = append(base, job)
	}
	k.base = base

	k.prepHistory(rs, st, false)
	bestMk, err := k.placeCandidate(rs, st, base, opts)
	if err != nil {
		return nil, err
	}
	copy(k.bestPlaced, k.placed)
	if k.dataM != nil {
		k.bestXfers = append(k.bestXfers[:0], k.workXfers...)
	}

	if opts.TieWindow > 0 {
		alt := k.alt
		if cap(alt) < len(base) {
			alt = make([]dag.JobID, len(base))
		}
		alt = alt[:len(base)]
		k.alt = alt
		for i := 0; i+1 < len(base); i++ {
			hi, lo := ranks[base[i]], ranks[base[i+1]]
			if hi <= 0 || hi-lo >= opts.TieWindow*hi {
				continue
			}
			if _, dep := k.g.EdgeData(base[i], base[i+1]); dep {
				continue // swapping would violate precedence
			}
			copy(alt, base)
			alt[i], alt[i+1] = alt[i+1], alt[i]
			mk, err := k.placeCandidate(rs, st, alt, opts)
			if err != nil {
				return nil, err
			}
			if mk < bestMk {
				bestMk = mk
				copy(k.bestPlaced, k.placed)
				if k.dataM != nil {
					k.bestXfers = append(k.bestXfers[:0], k.workXfers...)
				}
			}
		}
	}
	s := k.buildSchedule(base)
	k.timing.PlaceMs = time.Since(rankDone).Seconds() * 1e3
	return s, nil
}

// orEmpty returns st, or for nil the kernel's empty state at clock 0.
func (k *Kernel) orEmpty(st *State) *State {
	if st != nil {
		return st
	}
	if k.empty == nil {
		k.empty = k.NewState(0)
	}
	k.empty.Reset()
	return k.empty
}

// growTimelines ensures the per-resource scratch covers resource IDs up
// to maxID.
func (k *Kernel) growTimelines(maxID grid.ID) {
	need := int(maxID) + 1
	for len(k.baseTL) < need {
		k.baseTL = append(k.baseTL, nil)
		k.rows = append(k.rows, timeline{})
	}
}

// prepHistory builds, once per Reschedule, the carried-over execution
// history: per-resource base rows holding the finished (unless pinsOnly),
// pinned and foreign intervals (sorted by start), the pinned entries of
// the candidate placement template, the history assignment list for the
// final schedule, and the history makespan.
func (k *Kernel) prepHistory(rs []grid.Resource, st *State, pinsOnly bool) {
	copy(k.basePlaced, k.zeroPlaced)
	k.hist = k.hist[:0]
	k.histMax = 0
	maxID := grid.ID(-1)
	for _, r := range rs {
		if r.ID > maxID {
			maxID = r.ID
		}
	}
	for j := 0; j < k.n; j++ {
		var a schedule.Assignment
		switch {
		case st.finRes[j] != grid.NoResource:
			a = schedule.Assignment{Job: dag.JobID(j), Resource: st.finRes[j], Start: st.finAST[j], Finish: st.finAFT[j]}
		case st.isPin[j]:
			a = st.pin[j]
			k.basePlaced[j] = a
		default:
			continue
		}
		k.hist = append(k.hist, a)
		if a.Finish > k.histMax {
			k.histMax = a.Finish
		}
		if a.Resource > maxID {
			maxID = a.Resource
		}
	}
	// Clear every row the previous call filled, then the rows this call
	// will fill or scan; duplicates in the touch list only re-truncate.
	for _, r := range k.tlTouched {
		k.baseTL[r] = k.baseTL[r][:0]
	}
	k.tlTouched = k.tlTouched[:0]
	k.growTimelines(maxID)
	for _, r := range rs {
		k.baseTL[r.ID] = k.baseTL[r.ID][:0]
		k.tlTouched = append(k.tlTouched, r.ID)
	}
	for _, a := range k.hist {
		k.baseTL[a.Resource] = k.baseTL[a.Resource][:0]
	}
	for _, a := range k.hist {
		if pinsOnly && !st.isPin[a.Job] {
			continue
		}
		k.baseTL[a.Resource] = append(k.baseTL[a.Resource], block{a.Start, a.Finish})
		k.tlTouched = append(k.tlTouched, a.Resource)
	}
	k.injectForeign(rs)
	// Sort each row the placement loop will scan, once. History rows on
	// resources outside rs are never read by the slot search (they only
	// feed the final schedule through k.hist), so they stay unsorted.
	for _, r := range rs {
		sortBlocks(k.baseTL[r.ID])
	}
	if k.dataM != nil {
		k.prepChannels()
	}
}

// placeCandidate runs one full EFT-minimising placement pass over the
// jobs of order (rank order, or a tie-window variation of it) and returns
// the candidate's makespan. The resulting placements are left in
// k.placed. This is the zero-allocation steady-state inner loop.
func (k *Kernel) placeCandidate(rs []grid.Resource, st *State, order []dag.JobID, opts Options) (float64, error) {
	copy(k.placed, k.basePlaced)
	for _, r := range rs {
		k.rows[r.ID].reset(k.baseTL[r.ID])
	}
	insertion := !opts.NoInsertion
	if k.dataM != nil {
		k.beginDataPass(rs)
	}
	mk := k.histMax
	for _, job := range order {
		bestRes := grid.NoResource
		bestStart, bestFinish := 0.0, 0.0
		// overRes is the storage-overflow fallback (data path only): the
		// best placement among resources whose storage bound the job's
		// staging would exceed, used only when every resource overflows.
		overRes := grid.NoResource
		overStart, overFinish := 0.0, 0.0
		preds, eBase := k.g.Preds(job), k.g.PredBase(job)
		if k.dataM == nil {
			k.gatherInputs(st, preds)
		}
		for _, r := range rs {
			var ready float64
			fits := true
			if k.dataM != nil {
				ready, fits = k.probeInputs(st, preds, eBase, r.ID, insertion)
			} else {
				ready = k.inputReady(st, preds, eBase, r.ID)
			}
			w := k.est.Comp(job, r.ID)
			start := k.rows[r.ID].earliest(ready, w, insertion)
			finish := start + w // Eq. 3
			switch {
			case fits:
				if bestRes == grid.NoResource || finish < bestFinish {
					bestRes, bestStart, bestFinish = r.ID, start, finish
					k.xferBuf, k.xferBest = k.xferBest, k.xferBuf
				}
			case bestRes == grid.NoResource:
				if overRes == grid.NoResource || finish < overFinish {
					overRes, overStart, overFinish = r.ID, start, finish
					k.xferBuf, k.xferOver = k.xferOver, k.xferBuf
				}
			}
		}
		if bestRes == grid.NoResource && overRes != grid.NoResource {
			// Storage is a soft bound: when every resource would overflow,
			// the least-bad placement proceeds anyway.
			bestRes, bestStart, bestFinish = overRes, overStart, overFinish
			k.xferBest, k.xferOver = k.xferOver, k.xferBest
		}
		if bestRes == grid.NoResource {
			return 0, fmt.Errorf("kernel: no resource available for job %d", job)
		}
		if k.dataM != nil {
			k.commitInputs(job, bestRes, k.xferBest)
		}
		k.placed[job] = schedule.Assignment{Job: job, Resource: bestRes, Start: bestStart, Finish: bestFinish}
		k.rows[bestRes].add(bestStart, bestFinish)
		if bestFinish > mk {
			mk = bestFinish
		}
	}
	return mk, nil
}

// arrival is a placed or pinned predecessor's output as the job being
// placed sees it (Eq. 1 cases 3 and 4): on res from lo, its finish, and on
// every other resource from hi = lo + e.Data, its finish plus cost.Comm.
type arrival struct {
	res    grid.ID
	lo, hi float64
}

// inputs is the classic pass's once-per-job split of a job's predecessors
// (gatherInputs).
type inputs struct {
	finished []int     // indices into Preds(job) of finished predecessors
	placed   []arrival // the others, sorted by hi, latest first
}

// gatherInputs splits the predecessors of the job being placed, once per
// job: finished ones keep inputReady's per-resource ledger lookup, since
// their files may sit on any resource; every other one becomes an
// arrival, sorted by hi, latest first.
func (k *Kernel) gatherInputs(st *State, preds []dag.Edge) {
	in := &k.in
	in.finished, in.placed = in.finished[:0], in.placed[:0]
	for i, e := range preds {
		if st.finRes[e.From] != grid.NoResource {
			in.finished = append(in.finished, i)
			continue
		}
		pa := k.placed[e.From]
		if pa.Resource == grid.NoResource {
			panic(fmt.Sprintf("kernel: input of predecessor %d gathered before it was placed", e.From))
		}
		in.placed = append(in.placed, arrival{pa.Resource, pa.Finish, pa.Finish + e.Data})
	}
	slices.SortFunc(in.placed, func(a, b arrival) int { return cmp.Compare(b.hi, a.hi) })
}

// inputReady is the inner max of Eq. 2 on r over the split gatherInputs
// left: the latest FEA (Eq. 1) of the job's inputs, the same floats
// State.fea gives. The arrival walk stops at the first hi that cannot
// raise ready: no later arrival comes after its hi, and lo ≤ hi.
func (k *Kernel) inputReady(st *State, preds []dag.Edge, eBase int, r grid.ID) float64 {
	ready := st.Clock
	for _, i := range k.in.finished {
		if t := st.fea(preds[i], eBase+i, r); t > ready {
			ready = t
		}
	}
	for _, a := range k.in.placed {
		if a.hi <= ready {
			break
		}
		if a.res != r {
			ready = a.hi
		} else if a.lo > ready {
			ready = a.lo
		}
	}
	return ready
}

// buildSchedule materialises the winning candidate: history carried over
// plus the placements of every job in base. Only this final step
// allocates (the schedule handed to the caller).
func (k *Kernel) buildSchedule(base []dag.JobID) *schedule.Schedule {
	out := k.out[:0]
	out = append(out, k.hist...)
	for _, job := range base {
		out = append(out, k.bestPlaced[job])
	}
	k.out = out
	s := schedule.FromAssignments(out)
	if k.dataM != nil {
		ts := make([]schedule.Transfer, len(k.bestXfers))
		copy(ts, k.bestXfers)
		s.SetTransfers(ts)
	}
	return s
}

// --- Just-in-time dispatch evaluation ---------------------------------

// DispatchCompletion returns when job j would finish if bound to the idle
// resource r at time now under the dynamic file-transfer policy: input
// files produced on other resources start transferring at the decision,
// the resource stalls until they arrive, then computes (the paper's §4.2
// just-in-time model — no communication/computation overlap). resOf maps
// every already-dispatched job to its resource.
func (k *Kernel) DispatchCompletion(j dag.JobID, r grid.ID, now float64, resOf []grid.ID) float64 {
	inputReady := now
	for _, e := range k.g.Preds(j) {
		if resOf[e.From] == r {
			continue // produced here; predecessor finished before now
		}
		if arrive := now + cost.Comm(e, resOf[e.From], r); arrive > inputReady {
			inputReady = arrive
		}
	}
	return inputReady + k.est.Comp(j, r)
}

// DispatchBest evaluates job j against every idle resource and returns
// the completion-minimising resource together with the best and
// second-best completion times (the sufferage heuristic's inputs). idle
// must be non-empty; on an empty set it returns grid.NoResource.
func (k *Kernel) DispatchBest(j dag.JobID, idle []grid.ID, now float64, resOf []grid.ID) (best grid.ID, done, second float64) {
	best = grid.NoResource
	for _, r := range idle {
		d := k.DispatchCompletion(j, r, now, resOf)
		switch {
		case best == grid.NoResource:
			best, done, second = r, d, d
		case d < done:
			second = done
			best, done = r, d
		case d < second:
			second = d
		}
	}
	return best, done, second
}
