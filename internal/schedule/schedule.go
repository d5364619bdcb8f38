// Package schedule represents workflow schedules: the mapping from jobs to
// (resource, start time, finish time) triples that the Planner produces and
// the Executor enacts.
//
// A Schedule keeps two synchronised views — by job, for dependence lookups,
// and by resource as a start-sorted timeline, for slot search. The timeline
// view supports HEFT's insertion-based policy: a job may be placed in an
// idle gap between two already-scheduled jobs when the gap is long enough.
package schedule

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"

	"aheft/internal/dag"
	"aheft/internal/grid"
)

// Assignment places one job on one resource for the half-open interval
// [Start, Finish).
type Assignment struct {
	Job      dag.JobID
	Resource grid.ID
	Start    float64
	Finish   float64
}

// Duration returns the assignment's length.
func (a Assignment) Duration() float64 { return a.Finish - a.Start }

// Transfer is one planned data-file movement: file File is staged from
// resource From to resource To over [Start, Finish) so that job Job's
// input is materialized before it runs. Transfers are produced only by
// data-aware planning passes (see internal/data); classic point-to-point
// schedules carry none.
type Transfer struct {
	Job      dag.JobID
	File     string
	From, To grid.ID
	Start    float64
	Finish   float64
}

// Schedule is a mutable mapping from jobs to assignments. The zero value is
// not usable; call New.
//
// Job IDs are dense (the dag package numbers jobs 0..n-1), so the by-job
// view is a slice indexed by JobID with Resource == grid.NoResource
// marking unassigned entries — every lookup is an array access, and
// building a schedule from a complete assignment list never hashes.
type Schedule struct {
	byJob []Assignment // indexed by JobID; Resource == grid.NoResource ⇒ unassigned
	n     int
	byRes map[grid.ID][]Assignment // each slice sorted by Start

	// transfers are the planned file stagings backing the assignments
	// (data-aware passes only); ordered by (Start, Job, File).
	transfers []Transfer
}

// New returns an empty schedule.
func New() *Schedule {
	return &Schedule{
		byRes: make(map[grid.ID][]Assignment),
	}
}

// grow extends the by-job view to cover job j.
func (s *Schedule) grow(j dag.JobID) {
	for len(s.byJob) <= int(j) {
		s.byJob = append(s.byJob, Assignment{Resource: grid.NoResource})
	}
}

// FromAssignments builds a schedule from a complete assignment list in
// one pass: the job map is sized up front and each resource timeline is
// collected then sorted once, instead of being maintained sorted across
// per-assignment inserts. This is how the scheduling kernel materialises
// its final result; it panics on invalid intervals or duplicate jobs,
// both of which the kernel rules out by construction.
func FromAssignments(as []Assignment) *Schedule {
	maxID := dag.JobID(-1)
	for i := range as {
		if as[i].Job > maxID {
			maxID = as[i].Job
		}
	}
	s := &Schedule{
		byJob: make([]Assignment, int(maxID)+1),
		byRes: make(map[grid.ID][]Assignment),
	}
	for j := range s.byJob {
		s.byJob[j].Resource = grid.NoResource
	}
	for _, a := range as {
		if a.Finish < a.Start || math.IsNaN(a.Start) || math.IsNaN(a.Finish) {
			panic(fmt.Sprintf("schedule: invalid interval [%g,%g) for job %d", a.Start, a.Finish, a.Job))
		}
		if s.byJob[a.Job].Resource != grid.NoResource {
			panic(fmt.Sprintf("schedule: duplicate assignment for job %d", a.Job))
		}
		s.byJob[a.Job] = a
		s.n++
		s.byRes[a.Resource] = append(s.byRes[a.Resource], a)
	}
	for _, tl := range s.byRes {
		slices.SortFunc(tl, func(a, b Assignment) int {
			switch {
			case a.Start != b.Start:
				if a.Start < b.Start {
					return -1
				}
				return 1
			case a.Job != b.Job:
				if a.Job < b.Job {
					return -1
				}
				return 1
			default:
				return 0
			}
		})
	}
	return s
}

// Len returns the number of assigned jobs.
func (s *Schedule) Len() int { return s.n }

// Assign adds or replaces the assignment for a job, keeping the resource
// timeline sorted. It panics on a negative-duration interval.
func (s *Schedule) Assign(a Assignment) {
	if a.Finish < a.Start || math.IsNaN(a.Start) || math.IsNaN(a.Finish) {
		panic(fmt.Sprintf("schedule: invalid interval [%g,%g) for job %d", a.Start, a.Finish, a.Job))
	}
	s.grow(a.Job)
	if old := s.byJob[a.Job]; old.Resource != grid.NoResource {
		s.removeFromTimeline(old)
	} else {
		s.n++
	}
	s.byJob[a.Job] = a
	tl := s.byRes[a.Resource]
	i := sort.Search(len(tl), func(k int) bool {
		if tl[k].Start != a.Start {
			return tl[k].Start > a.Start
		}
		return tl[k].Job > a.Job
	})
	tl = append(tl, Assignment{})
	copy(tl[i+1:], tl[i:])
	tl[i] = a
	s.byRes[a.Resource] = tl
}

// Remove deletes the assignment for a job, if present.
func (s *Schedule) Remove(job dag.JobID) {
	if a, ok := s.Get(job); ok {
		s.removeFromTimeline(a)
		s.byJob[job].Resource = grid.NoResource
		s.n--
	}
}

func (s *Schedule) removeFromTimeline(a Assignment) {
	tl := s.byRes[a.Resource]
	for i := range tl {
		if tl[i].Job == a.Job {
			copy(tl[i:], tl[i+1:])
			s.byRes[a.Resource] = tl[:len(tl)-1]
			return
		}
	}
}

// Get returns the assignment for a job, if any.
func (s *Schedule) Get(job dag.JobID) (Assignment, bool) {
	if int(job) < 0 || int(job) >= len(s.byJob) || s.byJob[job].Resource == grid.NoResource {
		return Assignment{}, false
	}
	return s.byJob[job], true
}

// MustGet returns the assignment for a job and panics if it is missing —
// used on paths where the scheduler has already guaranteed coverage.
func (s *Schedule) MustGet(job dag.JobID) Assignment {
	a, ok := s.Get(job)
	if !ok {
		panic(fmt.Sprintf("schedule: job %d not assigned", job))
	}
	return a
}

// OnResource returns the start-sorted timeline for one resource. Shared
// slice; callers must not mutate.
func (s *Schedule) OnResource(r grid.ID) []Assignment { return s.byRes[r] }

// Resources returns the IDs of resources with at least one assignment, in
// ascending order.
func (s *Schedule) Resources() []grid.ID {
	out := make([]grid.ID, 0, len(s.byRes))
	for r, tl := range s.byRes {
		if len(tl) > 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Jobs returns the assigned jobs in ascending JobID order.
func (s *Schedule) Jobs() []dag.JobID {
	out := make([]dag.JobID, 0, s.n)
	for j := range s.byJob {
		if s.byJob[j].Resource != grid.NoResource {
			out = append(out, dag.JobID(j))
		}
	}
	return out
}

// ByJob yields every assignment in ascending JobID order, straight from
// the by-job view: no copy, no sort.
func (s *Schedule) ByJob() iter.Seq[Assignment] {
	return func(yield func(Assignment) bool) {
		for j := range s.byJob {
			if s.byJob[j].Resource != grid.NoResource && !yield(s.byJob[j]) {
				return
			}
		}
	}
}

// Assignments returns all assignments ordered by (Start, Job).
func (s *Schedule) Assignments() []Assignment {
	out := slices.AppendSeq(make([]Assignment, 0, s.n), s.ByJob())
	slices.SortFunc(out, func(a, b Assignment) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Job, b.Job))
	})
	return out
}

// Makespan returns the maximum finish time over all assignments — the
// paper's makespan = max{SFT(n_exit)} when the schedule covers a whole DAG
// (exit jobs necessarily finish last).
func (s *Schedule) Makespan() float64 {
	m := 0.0
	for j := range s.byJob {
		if a := &s.byJob[j]; a.Resource != grid.NoResource && a.Finish > m {
			m = a.Finish
		}
	}
	return m
}

// SetTransfers replaces the schedule's planned file stagings; the slice is
// sorted by (Start, Job, File) so the plan view is deterministic.
func (s *Schedule) SetTransfers(ts []Transfer) {
	s.transfers = ts
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Start != ts[j].Start {
			return ts[i].Start < ts[j].Start
		}
		if ts[i].Job != ts[j].Job {
			return ts[i].Job < ts[j].Job
		}
		return ts[i].File < ts[j].File
	})
}

// Transfers returns the planned file stagings (nil for classic schedules).
// Shared slice; callers must not mutate.
func (s *Schedule) Transfers() []Transfer { return s.transfers }

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	c := New()
	c.byJob = append([]Assignment(nil), s.byJob...)
	c.n = s.n
	for r, tl := range s.byRes {
		c.byRes[r] = append([]Assignment(nil), tl...)
	}
	if s.transfers != nil {
		c.transfers = append([]Transfer(nil), s.transfers...)
	}
	return c
}

// EarliestStart finds the earliest start time >= ready at which a task of
// the given duration fits on resource r.
//
// With insertion enabled this implements HEFT's insertion-based policy:
// idle gaps between consecutive assignments are considered, so a short job
// can slot in front of longer ones without delaying them. With insertion
// disabled the job can only go after the last assignment (the simpler
// "non-insertion" policy the ablation benchmarks compare against).
func (s *Schedule) EarliestStart(r grid.ID, ready, duration float64, insertion bool) float64 {
	tl := s.byRes[r]
	if len(tl) == 0 {
		return ready
	}
	if !insertion {
		last := tl[len(tl)-1].Finish
		if last > ready {
			return last
		}
		return ready
	}
	// Gap before the first assignment.
	if first := tl[0].Start; ready+duration <= first {
		return ready
	}
	for i := 0; i < len(tl)-1; i++ {
		gapStart := tl[i].Finish
		gapEnd := tl[i+1].Start
		start := math.Max(gapStart, ready)
		if start+duration <= gapEnd {
			return start
		}
	}
	return math.Max(tl[len(tl)-1].Finish, ready)
}

// CompCoster reports the expected duration of a job on a resource; it is a
// narrow view of cost.Estimator that keeps this package free of an import
// cycle while still allowing duration checks in Validate.
type CompCoster interface {
	Comp(job dag.JobID, res grid.ID) float64
}

// CommCoster reports the expected transfer time of an edge between two
// placements.
type CommCoster interface {
	Comm(e dag.Edge, rFrom, rTo grid.ID) float64
}

// ValidateOptions tunes Validate for the two kinds of schedules the system
// produces: pristine initial schedules (strict) and mid-execution
// reschedules whose early assignments reflect history rather than plans.
type ValidateOptions struct {
	// CheckDurations verifies Finish-Start == Comp(job, resource) when a
	// CompCoster is supplied.
	Comp CompCoster
	// Comm, when non-nil, verifies precedence including transfer delays:
	// start(j) >= finish(i) + Comm(edge, r_i, r_j).
	Comm CommCoster
	// Pool, when non-nil, verifies no assignment starts before its
	// resource joined the grid.
	Pool *grid.Pool
}

// Validate checks structural soundness of a complete schedule for g:
// every job assigned, no overlapping assignments on any resource, and —
// according to opts — duration, precedence and resource-availability
// consistency. It returns the first violation found.
func (s *Schedule) Validate(g *dag.Graph, opts ValidateOptions) error {
	for _, j := range g.Jobs() {
		if _, ok := s.Get(j.ID); !ok {
			return fmt.Errorf("schedule: job %s unassigned", j.Name)
		}
	}
	if s.n != g.Len() {
		return fmt.Errorf("schedule: %d assignments for %d jobs", s.n, g.Len())
	}
	for r, tl := range s.byRes {
		prev := -1 // the last assignment before i that occupies any time
		for i := range tl {
			if tl[i].Finish <= tl[i].Start {
				continue // a zero-cost job's empty interval overlaps nothing
			}
			// 1e-9 slack: start times are computed as (ready+w)−w by some
			// schedulers, which rounds a few ulps below the finish time of
			// the predecessor slot.
			if prev >= 0 && tl[i].Start < tl[prev].Finish-1e-9 {
				return fmt.Errorf("schedule: overlap on r%d: job %d [%g,%g) vs job %d [%g,%g)",
					r, tl[prev].Job, tl[prev].Start, tl[prev].Finish, tl[i].Job, tl[i].Start, tl[i].Finish)
			}
			prev = i
		}
	}
	if opts.Pool != nil {
		for j := range s.byJob {
			a := s.byJob[j]
			if a.Resource == grid.NoResource {
				continue
			}
			if at := opts.Pool.ArrivalTime(a.Resource); a.Start < at {
				return fmt.Errorf("schedule: job %d starts at %g on r%d which only joins at %g",
					a.Job, a.Start, a.Resource, at)
			}
		}
	}
	if opts.Comp != nil {
		for j := range s.byJob {
			a := s.byJob[j]
			if a.Resource == grid.NoResource {
				continue
			}
			want := opts.Comp.Comp(a.Job, a.Resource)
			if diff := math.Abs(a.Duration() - want); diff > 1e-9 {
				return fmt.Errorf("schedule: job %d duration %g != cost %g on r%d", a.Job, a.Duration(), want, a.Resource)
			}
		}
	}
	if opts.Comm != nil {
		for _, j := range g.Jobs() {
			aj := s.byJob[j.ID]
			for _, e := range g.Preds(j.ID) {
				ap := s.byJob[e.From]
				ready := ap.Finish + opts.Comm.Comm(e, ap.Resource, aj.Resource)
				if aj.Start+1e-9 < ready {
					return fmt.Errorf("schedule: job %s starts at %g before input from %s ready at %g",
						g.Job(j.ID).Name, aj.Start, g.Job(e.From).Name, ready)
				}
			}
		}
	}
	return nil
}

// Gantt renders the schedule as a text Gantt chart, one row per resource,
// with columns scaled to width characters. nameOf maps job IDs to labels;
// resName maps resource IDs to labels (pass nil for defaults).
func (s *Schedule) Gantt(width int, nameOf func(dag.JobID) string, resName func(grid.ID) string) string {
	if width <= 0 {
		width = 80
	}
	if nameOf == nil {
		nameOf = func(j dag.JobID) string { return fmt.Sprintf("n%d", j+1) }
	}
	if resName == nil {
		resName = func(r grid.ID) string { return fmt.Sprintf("r%d", r+1) }
	}
	mk := s.Makespan()
	if mk == 0 {
		return "(empty schedule)\n"
	}
	scale := float64(width) / mk
	var b strings.Builder
	for _, r := range s.Resources() {
		fmt.Fprintf(&b, "%-6s|", resName(r))
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, a := range s.byRes[r] {
			lo := int(a.Start * scale)
			hi := int(a.Finish * scale)
			if hi > width {
				hi = width
			}
			if hi <= lo {
				hi = lo + 1
				if hi > width {
					lo, hi = width-1, width
				}
			}
			label := nameOf(a.Job)
			for i := lo; i < hi && i < width; i++ {
				row[i] = '#'
			}
			for i, c := range []byte(label) {
				if lo+i < hi && lo+i < width {
					row[lo+i] = c
				}
			}
		}
		b.Write(row)
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "%-6s0%*s%.4g\n", "", width-1, "t=", mk)
	return b.String()
}

// String summarises the schedule for debugging: one line per assignment in
// start order.
func (s *Schedule) String() string {
	var b strings.Builder
	for _, a := range s.Assignments() {
		fmt.Fprintf(&b, "job %-4d r%-3d [%8.3f, %8.3f)\n", a.Job, a.Resource, a.Start, a.Finish)
	}
	fmt.Fprintf(&b, "makespan %.3f\n", s.Makespan())
	return b.String()
}
