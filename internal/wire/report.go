// Runtime-feedback wire format: the event documents the Performance
// Monitor side of the paper's Fig. 1 loop POSTs back to the daemon while
// it enacts a live workflow's schedule. A Report is a batch of
// time-ordered events — job starts, job completions with measured
// runtimes, explicit significant-variance observations, and resource
// join/leave churn — that the owning shard folds into the workflow's
// per-tenant Performance History Repository and evaluates for an
// adaptive reschedule.
//
// Like Submission, the format is versioned, strictly validated, and held
// to the fuzz contract that arbitrary bytes never panic the decoder and
// any accepted document re-encodes canonically (FuzzReportRoundTrip).
// Structural validity lives here; stateful validity (does the job exist,
// was it started, is the clock monotonic with the run) is the shard's
// business and is checked against the live run before any event is
// applied.
package wire

import (
	"encoding/json"
	"fmt"
	"math"

	"aheft/internal/jsonscan"
)

// Report event kinds.
const (
	// ReportJobStarted: the Execution Manager dispatched a job; Job and
	// Resource identify the placement, Time the actual start.
	ReportJobStarted = "job-started"
	// ReportJobFinished: a job completed; Duration is the measured
	// runtime (0 means "derive from the reported start"), Resource must
	// match the start report when non-zero.
	ReportJobFinished = "job-finished"
	// ReportVariance: the Performance Monitor observed a significant
	// deviation on a *running* job; Duration, when positive, is the
	// revised expected total runtime.
	ReportVariance = "variance"
	// ReportResourceJoin: a resource of the submitted universe became
	// available.
	ReportResourceJoin = "resource-join"
	// ReportResourceLeave: an available resource left the pool. Running
	// jobs keep their reservations (the compute slot drains); unstarted
	// jobs scheduled there force a reschedule.
	ReportResourceLeave = "resource-leave"
)

// DefaultMaxReportEvents bounds the event count of one accepted report.
const DefaultMaxReportEvents = 10_000

// ReportEvent is one run-time occurrence. Fields that a kind does not use
// must hold their zero value — the decoder rejects anything else so every
// accepted document has exactly one meaning.
type ReportEvent struct {
	// Kind is one of the Report* constants.
	Kind string `json:"kind"`
	// Time is the reporter's monotonic workflow clock (same unit as the
	// submitted estimates). Events must be time-ordered within a report
	// and across consecutive reports.
	Time float64 `json:"time"`
	// Job is the dense job index (job-started, job-finished, variance).
	Job int `json:"job,omitempty"`
	// Resource is the dense resource index (job-started, resource-join,
	// resource-leave; optional cross-check on job-finished).
	Resource int `json:"resource,omitempty"`
	// Duration is the measured runtime (job-finished) or the revised
	// expected runtime (variance).
	Duration float64 `json:"duration,omitempty"`
}

// Report is the envelope of one POST /v1/workflows/{id}/report request.
type Report struct {
	// V is the envelope version (see Version).
	V int `json:"v"`
	// Events holds the batch in time order.
	Events []ReportEvent `json:"events"`
}

func validNumber(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks structural validity: version, bounded batch size, known
// kinds, finite non-negative time-ordered clocks, and zeroed unused
// fields. maxEvents <= 0 means DefaultMaxReportEvents.
func (r *Report) Validate(maxEvents int) error {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxReportEvents
	}
	if r.V < 0 || r.V > Version {
		return fmt.Errorf("wire: unsupported report version %d (max %d)", r.V, Version)
	}
	if len(r.Events) == 0 {
		return fmt.Errorf("wire: report has no events")
	}
	if len(r.Events) > maxEvents {
		return fmt.Errorf("wire: %d events exceeds limit %d", len(r.Events), maxEvents)
	}
	last := 0.0
	for i, ev := range r.Events {
		if !validNumber(ev.Time) || ev.Time < 0 {
			return fmt.Errorf("wire: event %d has invalid time %g", i, ev.Time)
		}
		if ev.Time < last {
			return fmt.Errorf("wire: event %d time %g before event %d time %g (non-monotonic)", i, ev.Time, i-1, last)
		}
		last = ev.Time
		if !validNumber(ev.Duration) || ev.Duration < 0 {
			return fmt.Errorf("wire: event %d has invalid duration %g", i, ev.Duration)
		}
		if ev.Job < 0 {
			return fmt.Errorf("wire: event %d has negative job %d", i, ev.Job)
		}
		if ev.Resource < 0 {
			return fmt.Errorf("wire: event %d has negative resource %d", i, ev.Resource)
		}
		switch ev.Kind {
		case ReportJobStarted:
			if ev.Duration != 0 {
				return fmt.Errorf("wire: event %d (%s) carries a duration", i, ev.Kind)
			}
		case ReportJobFinished:
			// Job, Resource and Duration all meaningful.
		case ReportVariance:
			if ev.Resource != 0 {
				return fmt.Errorf("wire: event %d (%s) carries a resource", i, ev.Kind)
			}
		case ReportResourceJoin, ReportResourceLeave:
			if ev.Job != 0 {
				return fmt.Errorf("wire: event %d (%s) carries a job", i, ev.Kind)
			}
			if ev.Duration != 0 {
				return fmt.Errorf("wire: event %d (%s) carries a duration", i, ev.Kind)
			}
		default:
			return fmt.Errorf("wire: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// EncodeReport marshals the report at the current envelope version after
// validating it. The argument is not modified.
func EncodeReport(r *Report) ([]byte, error) {
	stamped := *r
	stamped.V = Version
	if err := stamped.Validate(0); err != nil {
		return nil, err
	}
	return json.Marshal(&stamped)
}

// DecodeReport decodes — in one pass, with json.Unmarshal's semantics (see
// the package comment; FuzzDecodeReportParity) — and structurally validates
// one report document. It never panics on any input. maxEvents <= 0 means
// DefaultMaxReportEvents.
func DecodeReport(data []byte, maxEvents int) (*Report, error) {
	var r Report
	sc := jsonscan.New(data)
	sc.Object("v", &r.V, "events", func() {
		r.Events = jsonscan.Array(sc, r.Events, func(ev *ReportEvent) {
			sc.Object("kind", &ev.Kind, "time", &ev.Time, "job", &ev.Job,
				"resource", &ev.Resource, "duration", &ev.Duration)
		})
	})
	if err := sc.End(); err != nil {
		return nil, fmt.Errorf("wire: decode report: %w", err)
	}
	if err := r.Validate(maxEvents); err != nil {
		return nil, err
	}
	return &r, nil
}

// --- Feedback-loop response documents ---------------------------------

// Assignment is the wire form of one schedule entry.
type Assignment struct {
	Job      int     `json:"job"`
	Resource int     `json:"resource"`
	Start    float64 `json:"start"`
	Finish   float64 `json:"finish"`
}

// Plan is the GET /v1/workflows/{id}/plan response: the schedule the
// daemon currently wants enacted. Generation increments on every adopted
// reschedule, so an enactor can detect that its copy is stale.
type Plan struct {
	Workflow string `json:"workflow"`
	// Generation is 1 for the initial plan, +1 per adopted reschedule.
	Generation int `json:"generation"`
	// Trigger names what produced this plan: "initial", "arrival",
	// "variance" or "departure".
	Trigger string `json:"trigger"`
	// Makespan is the plan's predicted completion time.
	Makespan    float64      `json:"makespan"`
	Assignments []Assignment `json:"assignments"`
}

// ReportAck is the POST /v1/workflows/{id}/report response.
type ReportAck struct {
	Workflow string `json:"workflow"`
	// Applied counts the events folded into the run (the whole batch, or
	// the prefix up to workflow completion).
	Applied int `json:"applied"`
	// Decisions counts the rescheduling evaluations this report caused.
	Decisions int `json:"decisions"`
	// Rescheduled reports whether any evaluation was adopted.
	Rescheduled bool `json:"rescheduled"`
	// Trigger is the last adopted evaluation's trigger.
	Trigger string `json:"trigger,omitempty"`
	// Generation is the current plan generation after this report.
	Generation int `json:"generation"`
	// Plan carries the new schedule when Rescheduled, saving the enactor
	// a round trip.
	Plan *Plan `json:"plan,omitempty"`
	// Done reports that every job is finished; Makespan is then the
	// measured completion time.
	Done     bool    `json:"done"`
	Makespan float64 `json:"makespan,omitempty"`
}

// WhatIfRequest is the POST /v1/workflows/{id}/whatif body: the paper's
// §3.3 capacity question evaluated against the live run. Add and Remove
// name resource indices of the submitted universe.
type WhatIfRequest struct {
	// Clock is the hypothetical evaluation time; values below the run's
	// live clock (including the 0 default: "right now") are clamped to it.
	Clock  float64 `json:"clock,omitempty"`
	Add    []int   `json:"add,omitempty"`
	Remove []int   `json:"remove,omitempty"`
}

// WhatIfDoc is the what-if response.
type WhatIfDoc struct {
	Workflow string  `json:"workflow"`
	Clock    float64 `json:"clock"`
	// PoolSize is the hypothetical pool's size.
	PoolSize int `json:"pool_size"`
	// CurrentMakespan is the live plan's projected completion under
	// current estimates if nothing changes.
	CurrentMakespan float64 `json:"current_makespan"`
	// NewMakespan is the predicted completion after rescheduling under
	// the hypothetical pool.
	NewMakespan float64 `json:"new_makespan"`
	// Delta is NewMakespan − CurrentMakespan (negative = improvement).
	Delta float64 `json:"delta"`
	// WouldAdopt reports whether the planner would switch schedules.
	WouldAdopt bool `json:"would_adopt"`
	// ForeignReservations counts the other workflows' reservations the
	// hypothetical replan had to plan around (shared grids only): the
	// what-if answer is against the grid's aggregate occupancy, not a
	// private pool snapshot.
	ForeignReservations int `json:"foreign_reservations,omitempty"`
}
