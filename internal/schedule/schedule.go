// Package schedule represents workflow schedules: the mapping from jobs to
// (resource, start time, finish time) triples that the Planner produces and
// the Executor enacts.
//
// A Schedule is one dense by-job view; the per-resource timelines the
// executor, Validate and Gantt read are computed on request (Timelines),
// never cached, so a Schedule nobody mutates is safe to read from several
// goroutines.
package schedule

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"math"
	"slices"
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
	Input    int // which of Job's inputs File is: its index in the graph's Preds(Job)
	File     string
	From, To grid.ID
	Start    float64
	Finish   float64
}

// Schedule is a mutable mapping from jobs to assignments. The zero value
// is an empty schedule, as is New().
//
// Job IDs are dense (the dag package numbers jobs 0..n-1), so the schedule
// is a slice indexed by JobID with Resource == grid.NoResource marking
// unassigned entries — every lookup, assignment and removal is an array
// access, and building a schedule from a complete assignment list never
// hashes or sorts.
type Schedule struct {
	byJob []Assignment // indexed by JobID; Resource == grid.NoResource ⇒ unassigned
	n     int

	// transfers are the planned file stagings backing the assignments
	// (data-aware passes only); ordered by (Start, Job, File).
	transfers []Transfer
}

// New returns an empty schedule.
func New() *Schedule { return &Schedule{} }

// FromAssignments builds a schedule from a complete assignment list in
// one fill of the by-job slice. This is how the scheduling kernel
// materialises its final result; it panics on invalid intervals or
// duplicate jobs, both of which the kernel rules out by construction.
func FromAssignments(as []Assignment) *Schedule {
	maxID := dag.JobID(-1)
	for i := range as {
		maxID = max(maxID, as[i].Job)
	}
	s := &Schedule{byJob: make([]Assignment, int(maxID)+1)}
	for j := range s.byJob {
		s.byJob[j].Resource = grid.NoResource
	}
	for _, a := range as {
		if s.byJob[a.Job].Resource != grid.NoResource {
			panic(fmt.Sprintf("schedule: duplicate assignment for job %d", a.Job))
		}
		s.Assign(a)
	}
	return s
}

// Len returns the number of assigned jobs.
func (s *Schedule) Len() int { return s.n }

// Assign adds or replaces the assignment for a job. It panics on a
// negative-duration interval.
func (s *Schedule) Assign(a Assignment) {
	if a.Finish < a.Start || math.IsNaN(a.Start) || math.IsNaN(a.Finish) {
		panic(fmt.Sprintf("schedule: invalid interval [%g,%g) for job %d", a.Start, a.Finish, a.Job))
	}
	for len(s.byJob) <= int(a.Job) {
		s.byJob = append(s.byJob, Assignment{Resource: grid.NoResource})
	}
	if s.byJob[a.Job].Resource == grid.NoResource {
		s.n++
	}
	s.byJob[a.Job] = a
}

// Remove deletes the assignment for a job, if present.
func (s *Schedule) Remove(job dag.JobID) {
	if _, ok := s.Get(job); ok {
		s.byJob[job].Resource = grid.NoResource
		s.n--
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

// Timelines returns every used resource's assignments ordered by
// (Start, Job), computed from the by-job view on each call: the caller owns
// the result.
func (s *Schedule) Timelines() map[grid.ID][]Assignment {
	tl := make(map[grid.ID][]Assignment)
	for _, a := range s.Assignments() {
		tl[a.Resource] = append(tl[a.Resource], a)
	}
	return tl
}

// Resources returns the IDs of resources with at least one assignment, in
// ascending order.
func (s *Schedule) Resources() []grid.ID { return slices.Sorted(maps.Keys(s.Timelines())) }

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
	slices.SortFunc(ts, func(a, b Transfer) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Job, b.Job), strings.Compare(a.File, b.File))
	})
}

// Transfers returns the planned file stagings (nil for classic schedules).
// Shared slice; callers must not mutate.
func (s *Schedule) Transfers() []Transfer { return s.transfers }

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{byJob: slices.Clone(s.byJob), n: s.n, transfers: slices.Clone(s.transfers)}
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
	for r, tl := range s.Timelines() {
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
	tls := s.Timelines()
	for _, r := range slices.Sorted(maps.Keys(tls)) {
		fmt.Fprintf(&b, "%-6s|", resName(r))
		row := []byte(strings.Repeat(" ", width))
		for _, a := range tls[r] {
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
