// Package wire defines the versioned submission envelope the aheftd
// daemon accepts over HTTP: one JSON document bundling a workflow graph,
// its estimator table, the dynamic resource-pool description, and the
// scheduling policy/options to drive it with. It composes the codecs of
// the model packages — dag.Graph (internal/dag/serialize.go), cost.Table
// and grid.Pool — and layers strict cross-validation and size limits on
// top, so a malformed or hostile submission is rejected with an error and
// can never panic or exhaust the daemon (FuzzSerializeRoundTrip holds the
// decoder to that).
//
// Decoding is one pass over the bytes: each document has one decoder,
// written against internal/jsonscan and building its model object directly
// (dag.Decode, cost.DecodeTable, grid.DecodePool, data.DecodeSet, the
// envelope's and DecodeReport here), and the json.Unmarshaler methods call
// the same functions. The semantics are encoding/json's — unknown keys ignored, a
// key matched exactly and otherwise case-insensitively, null leaving a
// field unset, the last of a repeated key winning, bytes after the document
// an error, numbers converted by strconv on the token — by test, not by
// construction: the reflective decoders this replaced live on in
// oracle_test.go, and FuzzDecodeSubmissionParity / FuzzDecodePartsParity /
// FuzzDecodeReportParity require the same accept-or-reject and the same
// decoded value on every input; only error text may differ. Encoding still goes through
// encoding/json and the tagged structs.
//
// The format is versioned at both layers: the envelope carries "v" and
// every embedded graph document carries its own "v" (dag.WireVersion).
// Decoders accept versions up to their own and reject newer ones, so old
// daemons fail closed on future documents.
//
// Edge-cost precedence (v2): a submission may declare a file catalog
// ("files") and edges may name files. For an edge that names a declared
// file, the communication cost is *derived* — file size ÷ the effective
// bandwidth of the path, as declared by the pool's uplink/downlink/link
// capacities — and the edge's raw numeric "data" weight is superseded
// (it remains legal on the wire and still drives edges that name no
// file). A submission that names files on edges without declaring a
// catalog is rejected; a v1 document (no "files", no capacities) decodes
// and re-encodes exactly as before and schedules bit-identically.
package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/jsonscan"
)

// Version is the current envelope version. DecodeSubmission accepts 0
// (legacy, unversioned) through Version and rejects anything newer.
// History: v1 — original envelope; v2 — data-aware scheduling (the
// submission "files" catalog, pool link/storage capacities, grid-status
// link occupancy).
const Version = 2

// Limits bounds the size of an accepted submission. The zero value means
// DefaultLimits; a negative field disables that bound.
type Limits struct {
	// MaxJobs caps the job count of the submitted graph.
	MaxJobs int
	// MaxResources caps the pool size (resources that ever join).
	MaxResources int
	// MaxFiles caps the submission's declared file catalog.
	MaxFiles int
}

// DefaultLimits is the daemon's default submission bound: generous enough
// for the 20k-job layered stress workflows, small enough that one
// submission cannot exhaust the process.
var DefaultLimits = Limits{MaxJobs: 100_000, MaxResources: 10_000, MaxFiles: 10_000}

func (l Limits) withDefaults() Limits {
	if l.MaxJobs == 0 {
		l.MaxJobs = DefaultLimits.MaxJobs
	}
	if l.MaxResources == 0 {
		l.MaxResources = DefaultLimits.MaxResources
	}
	if l.MaxFiles == 0 {
		l.MaxFiles = DefaultLimits.MaxFiles
	}
	return l
}

// Options is the wire form of the policy options (policy.Options), kept
// as an independent struct so the wire format does not drift silently
// when the engine grows new knobs.
type Options struct {
	// TieWindow enables near-tie rank-order exploration (0 = greedy).
	TieWindow float64 `json:"tie_window,omitempty"`
	// NoInsertion disables the insertion-based slot policy.
	NoInsertion bool `json:"no_insertion,omitempty"`
	// RestartRunning reschedules mid-execution jobs (analytic-only
	// ablation; the daemon runs the analytic engine, so it is honoured).
	RestartRunning bool `json:"restart_running,omitempty"`
	// Eps is the minimum makespan improvement to adopt a reschedule.
	Eps float64 `json:"eps,omitempty"`
	// VarianceThreshold, for live workflows, is the relative deviation of
	// a measured runtime from the history EWMA beyond which the daemon
	// evaluates a reschedule (the paper's "significant variance" event).
	// Zero means the daemon's configured default.
	VarianceThreshold float64 `json:"variance_threshold,omitempty"`
	// Class is the admission priority class: one of ClassHigh,
	// ClassNormal (also the empty string) or ClassLow. Classes share the
	// daemon's intake by weighted fair queueing — a higher class gets a
	// larger service share under backlog, never an absolute priority, so
	// low-class submissions cannot starve.
	Class string `json:"class,omitempty"`
	// Weight is the tenant's fair-queueing weight within its class
	// (0 means 1). Under backlog a tenant's admission share is
	// proportional to its weight relative to the other backlogged
	// tenants of the same class. Capped at MaxWeight.
	Weight float64 `json:"weight,omitempty"`
}

// Admission priority classes carried in Options.Class.
const (
	ClassHigh   = "high"
	ClassNormal = "normal"
	ClassLow    = "low"
)

// MaxWeight bounds Options.Weight so one tenant cannot claim an
// effectively absolute share of its class.
const MaxWeight = 1000

func (o Options) validate() error {
	if math.IsNaN(o.TieWindow) || math.IsInf(o.TieWindow, 0) || o.TieWindow < 0 {
		return fmt.Errorf("wire: invalid tie_window %g", o.TieWindow)
	}
	if math.IsNaN(o.Eps) || math.IsInf(o.Eps, 0) || o.Eps < 0 {
		return fmt.Errorf("wire: invalid eps %g", o.Eps)
	}
	if math.IsNaN(o.VarianceThreshold) || math.IsInf(o.VarianceThreshold, 0) || o.VarianceThreshold < 0 {
		return fmt.Errorf("wire: invalid variance_threshold %g", o.VarianceThreshold)
	}
	switch o.Class {
	case "", ClassHigh, ClassNormal, ClassLow:
	default:
		return fmt.Errorf("wire: unknown admission class %q", o.Class)
	}
	if math.IsNaN(o.Weight) || math.IsInf(o.Weight, 0) || o.Weight < 0 || o.Weight > MaxWeight {
		return fmt.Errorf("wire: invalid weight %g (want 0 <= w <= %d)", o.Weight, MaxWeight)
	}
	return nil
}

// Submission modes.
const (
	// ModeAnalytic (also the empty string) asks the daemon to run the
	// workflow to completion through the analytic engine: the pool's
	// arrival trace is the only event source and the submission is the
	// whole conversation.
	ModeAnalytic = "analytic"
	// ModeLive asks the daemon to plan only: the client enacts the
	// returned schedule and reports run-time events back through
	// POST /v1/workflows/{id}/report, closing the paper's Fig. 1 loop.
	ModeLive = "live"
)

// MaxTenantLen bounds the tenant label length.
const MaxTenantLen = 128

// MaxNameLen bounds the workflow name — the one client-chosen string a
// terminal record keeps for as long as the daemon retains it.
const MaxNameLen = 256

// checkLabel bounds a client-chosen label that ends up in status
// documents, logs and metrics: at most max bytes, no control characters.
func checkLabel(what, s string, max int) error {
	if len(s) > max {
		return fmt.Errorf("wire: %s exceeds %d bytes", what, max)
	}
	for _, c := range s {
		if c < 0x20 || c == 0x7f {
			return fmt.Errorf("wire: %s contains control character %q", what, c)
		}
	}
	return nil
}

// SharedPoolPrefix marks a pool reference: a submission whose "pool"
// field is the JSON string "shared:<name>" attaches to the named
// shard-resident shared grid (created via PUT /v1/grids/{name}) instead
// of shipping a private pool of its own. Workflows on the same grid see
// each other's reservations during planning.
const SharedPoolPrefix = "shared:"

// MaxGridNameLen bounds a shared-grid name.
const MaxGridNameLen = 128

// ValidGridName reports whether name is acceptable as a shared-grid
// identifier: non-empty, bounded, and free of control characters and '/'
// (names appear in URL paths).
func ValidGridName(name string) bool {
	if name == "" || len(name) > MaxGridNameLen {
		return false
	}
	for _, c := range name {
		if c < 0x21 || c == 0x7f || c == '/' {
			return false
		}
	}
	return true
}

// Submission is the envelope of one POST /v1/workflows request.
type Submission struct {
	// V is the envelope version (see Version).
	V int `json:"v"`
	// Name optionally labels the workflow; the daemon-assigned ID is
	// authoritative.
	Name string `json:"name,omitempty"`
	// Mode selects how the daemon runs the workflow (ModeAnalytic when
	// empty, or ModeLive for the report-driven adaptive loop).
	Mode string `json:"mode,omitempty"`
	// Tenant scopes the performance history this workflow reads and
	// feeds; empty means the daemon's default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Policy is the scheduling-policy registry name; empty means the
	// daemon default ("aheft").
	Policy string `json:"policy,omitempty"`
	// Options tunes the engine for this workflow.
	Options Options `json:"options,omitempty"`
	// Graph is the workflow DAG (dag wire format, validated on decode).
	Graph *dag.Graph `json:"graph"`
	// Comp is the estimator table: the jobs × resources computation
	// matrix over every resource that ever joins the pool.
	Comp *cost.Table `json:"comp"`
	// Files optionally declares the workflow's data-file catalog (v2).
	// When present, every graph edge naming a file must resolve to an
	// entry here, and those edges' communication cost is derived from
	// size ÷ effective bandwidth instead of their raw "data" weight —
	// the precedence rule in the package doc. A pointer so a nil catalog
	// is omitted and v1 documents re-encode byte-identically.
	Files *data.Set `json:"files,omitempty"`
	// Pool is the dynamic resource pool: arrivals in resource-ID order.
	// Exactly one of Pool and SharedGrid is set; on the wire both travel
	// in the "pool" field (an inline pool document, or the string
	// "shared:<name>").
	Pool *grid.Pool `json:"-"`
	// SharedGrid, when non-empty, attaches the workflow to the named
	// shard-resident shared grid instead of shipping a private pool. The
	// grid must already exist (PUT /v1/grids/{name}) and the estimator
	// table must cover its resource universe. Shared submissions must be
	// ModeLive: contention is resolved through the enactment feedback
	// loop, and the workflow's reservations become visible to every other
	// workflow on the same grid.
	SharedGrid string `json:"-"`
}

// submissionWire mirrors Submission field for field with the pool carried
// raw, implementing the polymorphic "pool" encoding for MarshalJSON
// (decoding does not use it). Field order must match Submission so
// canonical re-encoding is stable.
type submissionWire struct {
	V       int             `json:"v"`
	Name    string          `json:"name,omitempty"`
	Mode    string          `json:"mode,omitempty"`
	Tenant  string          `json:"tenant,omitempty"`
	Policy  string          `json:"policy,omitempty"`
	Options Options         `json:"options,omitempty"`
	Graph   *dag.Graph      `json:"graph"`
	Comp    *cost.Table     `json:"comp"`
	Files   *data.Set       `json:"files,omitempty"`
	Pool    json.RawMessage `json:"pool"`
}

// MarshalJSON encodes the submission with the pool field holding either
// the inline pool document or the "shared:<name>" reference.
func (s Submission) MarshalJSON() ([]byte, error) {
	w := submissionWire{
		V: s.V, Name: s.Name, Mode: s.Mode, Tenant: s.Tenant,
		Policy: s.Policy, Options: s.Options, Graph: s.Graph, Comp: s.Comp,
		Files: s.Files,
	}
	switch {
	case s.SharedGrid != "" && s.Pool != nil:
		return nil, fmt.Errorf("wire: submission sets both pool and shared grid %q", s.SharedGrid)
	case s.SharedGrid != "":
		ref, err := json.Marshal(SharedPoolPrefix + s.SharedGrid)
		if err != nil {
			return nil, err
		}
		w.Pool = ref
	case s.Pool != nil:
		inline, err := json.Marshal(s.Pool)
		if err != nil {
			return nil, err
		}
		w.Pool = inline
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes one submission document without validating it
// across its parts (DecodeSubmission does both).
func (s *Submission) UnmarshalJSON(doc []byte) error {
	var ns Submission
	if err := ns.decode(doc); err != nil {
		return err
	}
	*s = ns
	return nil
}

// decode fills s from one submission document: the envelope's scalar
// fields here, each embedded document by its package's decoder reading
// from the same scanner. The corners of the package comment's semantics:
// null clears "graph", "comp" and "files"; a repeated "options" or "files"
// merges field by field; every "graph" and "comp" given must decode, but
// of several "pool" values only the last is looked at. So "pool" alone is
// deliberately walked twice: skipped where it stands, which checks its
// syntax and nesting, and the last one decoded once the walk is over — a
// pool of the wrong shape is an error only if it is the one that counts.
func (s *Submission) decode(doc []byte) error {
	sc := jsonscan.New(doc)
	var pool []byte
	var err error
	o := &s.Options
	sc.Object("v", &s.V, "name", &s.Name, "mode", &s.Mode, "tenant", &s.Tenant, "policy", &s.Policy,
		"options", func() {
			sc.Object("tie_window", &o.TieWindow, "no_insertion", &o.NoInsertion, "restart_running", &o.RestartRunning,
				"eps", &o.Eps, "variance_threshold", &o.VarianceThreshold, "class", &o.Class, "weight", &o.Weight)
		},
		"graph", func() {
			if s.Graph = nil; !sc.Null() {
				s.Graph, err = dag.Decode(sc)
				sc.Fail(err)
			}
		},
		"comp", func() {
			if s.Comp = nil; !sc.Null() {
				s.Comp, err = cost.DecodeTable(sc)
				sc.Fail(err)
			}
		},
		"files", func() { jsonscan.Ptr(sc, &s.Files, func(set *data.Set) { data.DecodeSet(sc, set) }) },
		"pool", func() { pool = sc.Raw() })
	if err = sc.End(); err != nil || pool == nil {
		return err
	}
	sc = jsonscan.New(pool)
	switch {
	case sc.Null():
	case sc.Peek() == '"':
		ref := string(sc.String())
		name, ok := strings.CutPrefix(ref, SharedPoolPrefix)
		if !ok {
			return fmt.Errorf("wire: pool reference %q must start with %q", ref, SharedPoolPrefix)
		}
		s.SharedGrid = name
	default:
		s.Pool, err = grid.DecodePool(sc)
	}
	return err
}

// Validate cross-checks the decoded parts against each other and the
// limits. It is called by DecodeSubmission; callers constructing a
// Submission in Go should call it before encoding.
func (s *Submission) Validate(lim Limits) error {
	lim = lim.withDefaults()
	if s.V < 0 || s.V > Version {
		return fmt.Errorf("wire: unsupported envelope version %d (max %d)", s.V, Version)
	}
	if s.Mode != "" && s.Mode != ModeAnalytic && s.Mode != ModeLive {
		return fmt.Errorf("wire: unknown mode %q", s.Mode)
	}
	if err := checkLabel("workflow name", s.Name, MaxNameLen); err != nil {
		return err
	}
	if err := checkLabel("tenant label", s.Tenant, MaxTenantLen); err != nil {
		return err
	}
	if err := s.Options.validate(); err != nil {
		return err
	}
	if s.Graph == nil || s.Graph.Len() == 0 {
		return fmt.Errorf("wire: submission has no graph")
	}
	if s.Comp == nil || s.Comp.Jobs() == 0 {
		return fmt.Errorf("wire: submission has no estimator table")
	}
	if lim.MaxJobs > 0 && s.Graph.Len() > lim.MaxJobs {
		return fmt.Errorf("wire: %d jobs exceeds limit %d", s.Graph.Len(), lim.MaxJobs)
	}
	if s.Comp.Jobs() != s.Graph.Len() {
		return fmt.Errorf("wire: estimator table covers %d jobs, graph has %d", s.Comp.Jobs(), s.Graph.Len())
	}
	if s.Files == nil {
		// An edge naming a file without a catalog has no size to derive a
		// cost from; fail closed rather than silently falling back to the
		// raw weight.
		for _, j := range s.Graph.Jobs() {
			for _, e := range s.Graph.Preds(j.ID) {
				if e.File != "" {
					return fmt.Errorf("wire: edge (%s,%s) names file %q but the submission declares no file catalog",
						s.Graph.Job(e.From).Name, s.Graph.Job(e.To).Name, e.File)
				}
			}
		}
	}
	if s.SharedGrid != "" {
		// Shared-grid submission: the pool lives on the daemon, which
		// cross-checks the estimator table against the grid's resource
		// universe at submit time.
		if s.Pool != nil {
			return fmt.Errorf("wire: submission sets both pool and shared grid %q", s.SharedGrid)
		}
		if !ValidGridName(s.SharedGrid) {
			return fmt.Errorf("wire: invalid shared-grid name %q", s.SharedGrid)
		}
		if s.Mode != ModeLive {
			return fmt.Errorf("wire: shared grid %q requires mode %q", s.SharedGrid, ModeLive)
		}
		if s.Files != nil {
			// Pool size 0: host references are range-checked against the
			// grid's universe at submit time, when the daemon resolves it.
			if err := s.Files.Validate(s.Graph, 0, lim.MaxFiles); err != nil {
				return fmt.Errorf("wire: %w", err)
			}
		}
		return nil
	}
	if s.Pool == nil || s.Pool.Size() == 0 {
		return fmt.Errorf("wire: submission has no resource pool")
	}
	if lim.MaxResources > 0 && s.Pool.Size() > lim.MaxResources {
		return fmt.Errorf("wire: %d resources exceeds limit %d", s.Pool.Size(), lim.MaxResources)
	}
	if s.Comp.Resources() != s.Pool.Size() {
		return fmt.Errorf("wire: estimator table covers %d resources, pool has %d", s.Comp.Resources(), s.Pool.Size())
	}
	if s.Files != nil {
		if err := s.Files.Validate(s.Graph, s.Pool.Size(), lim.MaxFiles); err != nil {
			return fmt.Errorf("wire: %w", err)
		}
	}
	return nil
}

// EncodeSubmission marshals the submission at the current envelope
// version after validating its structure. Size limits are the
// *receiver's* policy (a daemon may be configured well above
// DefaultLimits), so encoding applies none — only structural validity.
// The argument is not modified.
func EncodeSubmission(s *Submission) ([]byte, error) {
	stamped := *s
	stamped.V = Version
	if err := stamped.Validate(Limits{MaxJobs: -1, MaxResources: -1}); err != nil {
		return nil, err
	}
	return json.Marshal(&stamped)
}

// DecodeSubmission unmarshals and fully validates one submission
// document. Every embedded part is validated by its own codec (the graph
// must be a well-formed DAG, the table rectangular/positive/finite, the
// pool arrivals non-negative with a time-0 resource) and the parts are
// cross-checked against each other and lim. It never panics on any
// input.
func DecodeSubmission(data []byte, lim Limits) (*Submission, error) {
	var s Submission
	if err := s.decode(data); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	if err := s.Validate(lim); err != nil {
		return nil, err
	}
	return &s, nil
}

// --- Shared-grid documents --------------------------------------------

// GridSpec is the PUT /v1/grids/{name} body: the resource universe of a
// shard-resident shared grid that live workflows attach to with
// pool: "shared:<name>".
type GridSpec struct {
	// V is the envelope version (see Version).
	V int `json:"v"`
	// Pool is the grid's dynamic resource pool; every attaching
	// workflow's estimator table must cover it.
	Pool *grid.Pool `json:"pool"`
}

// Validate checks the spec against the limits.
func (g *GridSpec) Validate(lim Limits) error {
	lim = lim.withDefaults()
	if g.V < 0 || g.V > Version {
		return fmt.Errorf("wire: unsupported envelope version %d (max %d)", g.V, Version)
	}
	if g.Pool == nil || g.Pool.Size() == 0 {
		return fmt.Errorf("wire: grid spec has no resource pool")
	}
	if lim.MaxResources > 0 && g.Pool.Size() > lim.MaxResources {
		return fmt.Errorf("wire: %d resources exceeds limit %d", g.Pool.Size(), lim.MaxResources)
	}
	return nil
}

// EncodeGridSpec marshals the spec at the current envelope version after
// validating its structure.
func EncodeGridSpec(g *GridSpec) ([]byte, error) {
	stamped := *g
	stamped.V = Version
	if err := stamped.Validate(Limits{MaxJobs: -1, MaxResources: -1}); err != nil {
		return nil, err
	}
	return json.Marshal(&stamped)
}

// DecodeGridSpec unmarshals and validates one grid spec. It never panics
// on any input.
func DecodeGridSpec(data []byte, lim Limits) (*GridSpec, error) {
	var g GridSpec
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("wire: decode grid spec: %w", err)
	}
	if err := g.Validate(lim); err != nil {
		return nil, err
	}
	return &g, nil
}

// GridOwner is one attached workflow's live reservation footprint.
type GridOwner struct {
	Workflow     string `json:"workflow"`
	Reservations int    `json:"reservations"`
}

// LinkStatus is one capacity channel's live transfer-reservation count
// (channel names are the data model's: "up:<res>", "down:<res>",
// "link:<name>").
type LinkStatus struct {
	Channel      string `json:"channel"`
	Reservations int    `json:"reservations"`
}

// GridStatus is the GET /v1/grids/{name} response (and each element of
// GET /v1/grids).
type GridStatus struct {
	Name string `json:"name"`
	// Shard is the session worker hosting the grid; every workflow
	// attached to the grid executes there.
	Shard     int `json:"shard"`
	Resources int `json:"resources"`
	// Attached counts the live workflows currently resident on the grid.
	Attached int `json:"attached"`
	// Reservations is the aggregate occupancy: the total live reservation
	// count across every attached workflow. It must drain to zero when
	// the last workflow finishes — a non-zero value with Attached == 0 is
	// a leak.
	Reservations int `json:"reservations"`
	// Owners breaks Reservations down per attached workflow.
	Owners []GridOwner `json:"owners,omitempty"`
	// TransferReservations is the aggregate link occupancy: the total live
	// transfer-reservation count across every capacity channel. Like
	// Reservations it must drain to zero when the last workflow finishes.
	TransferReservations int `json:"transfer_reservations,omitempty"`
	// Links breaks TransferReservations down per capacity channel, in
	// channel-name order.
	Links []LinkStatus `json:"links,omitempty"`
}

// --- Response-side wire types (shared by the daemon and loadgen). ---

// Decision is the wire form of one rescheduling evaluation.
type Decision struct {
	Clock    float64 `json:"clock"`
	PoolSize int     `json:"pool_size"`
	// OldMakespan is the current plan's projected completion at the
	// evaluation; -1 means the plan had become infeasible (a resource
	// departure orphaned pending jobs), which forces adoption.
	OldMakespan  float64 `json:"old_makespan"`
	NewMakespan  float64 `json:"new_makespan"`
	Adopted      bool    `json:"adopted"`
	JobsFinished int     `json:"jobs_finished"`
	Trigger      string  `json:"trigger"`
	Arrived      int     `json:"arrived,omitempty"`
	// ElapsedMs is the replan's wall-clock cost: live telemetry, which the
	// daemon's journalled state omits.
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	// RankMs/PlaceMs split ElapsedMs into the kernel's rank and
	// placement phases (same telemetry caveat as the fields above).
	RankMs  float64 `json:"rank_ms,omitempty"`
	PlaceMs float64 `json:"place_ms,omitempty"`
}

// Event is one server-sent event of a workflow's execution: the envelope
// streamed by GET /v1/workflows/{id}/events. Seq numbers are dense per
// workflow, so a consumer can detect any gap.
type Event struct {
	Seq      int       `json:"seq"`
	Kind     string    `json:"kind"` // submitted | started | plan | decision | done | failed
	Workflow string    `json:"workflow"`
	Time     float64   `json:"time,omitempty"` // simulated clock where meaningful
	Decision *Decision `json:"decision,omitempty"`
	// Trigger and Arrived lift the decision's cause into the envelope so
	// stream consumers can filter without unpacking the payload; on
	// "plan" events Trigger names what produced the plan.
	Trigger    string  `json:"trigger,omitempty"`
	Arrived    int     `json:"arrived,omitempty"`
	Generation int     `json:"generation,omitempty"` // plan generation (live workflows)
	Makespan   float64 `json:"makespan,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// DecodeAssignment, DecodeDecision and DecodeEvent decode the object at
// the scanner into their argument as json.Unmarshal would (the journal's
// state records are made of them; see server.walState).
func DecodeAssignment(sc *jsonscan.Scanner, a *Assignment) {
	sc.Object("job", &a.Job, "resource", &a.Resource, "start", &a.Start, "finish", &a.Finish)
}

func DecodeDecision(sc *jsonscan.Scanner, d *Decision) {
	sc.Object("clock", &d.Clock, "pool_size", &d.PoolSize, "old_makespan", &d.OldMakespan,
		"new_makespan", &d.NewMakespan, "adopted", &d.Adopted, "jobs_finished", &d.JobsFinished,
		"trigger", &d.Trigger, "arrived", &d.Arrived,
		"elapsed_ms", &d.ElapsedMs, "rank_ms", &d.RankMs, "place_ms", &d.PlaceMs)
}

func DecodeEvent(sc *jsonscan.Scanner, ev *Event) {
	sc.Object("seq", &ev.Seq, "kind", &ev.Kind, "workflow", &ev.Workflow, "time", &ev.Time,
		"decision", func() { jsonscan.Ptr(sc, &ev.Decision, func(d *Decision) { DecodeDecision(sc, d) }) },
		"trigger", &ev.Trigger, "arrived", &ev.Arrived, "generation", &ev.Generation,
		"makespan", &ev.Makespan, "error", &ev.Error)
}

// Status is the GET /v1/workflows/{id} response.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"` // queued | running | done | failed
	// Mode is the submission mode ("analytic" or "live").
	Mode string `json:"mode,omitempty"`
	// Tenant is the performance-history scope of a live workflow.
	Tenant string `json:"tenant,omitempty"`
	// Grid names the shared grid the workflow is attached to (shared
	// submissions only).
	Grid string `json:"grid,omitempty"`
	// Generation is the live plan generation (0 for analytic workflows).
	Generation int `json:"generation,omitempty"`
	// Reports counts accepted report batches (live workflows).
	Reports   int     `json:"reports,omitempty"`
	Policy    string  `json:"policy"`
	Shard     int     `json:"shard"`
	Jobs      int     `json:"jobs"`
	Resources int     `json:"resources"`
	Events    int     `json:"events"`
	QueueMs   float64 `json:"queue_ms"`
	ComputeMs float64 `json:"compute_ms,omitempty"`

	// Result fields, set once State is "done".
	Makespan        float64    `json:"makespan,omitempty"`
	InitialMakespan float64    `json:"initial_makespan,omitempty"`
	Improvement     float64    `json:"improvement,omitempty"`
	Decisions       []Decision `json:"decisions,omitempty"`
	Adoptions       int        `json:"adoptions,omitempty"`

	Error string `json:"error,omitempty"`
}

// Submitted is the POST /v1/workflows response.
type Submitted struct {
	ID    string `json:"id"`
	Shard int    `json:"shard"`
	State string `json:"state"`
}
