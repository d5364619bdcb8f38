package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"aheft/internal/admission"
	"aheft/internal/cost"
	"aheft/internal/data"
	"aheft/internal/durable"
	"aheft/internal/feedback"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/kernel"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/schedule"
	"aheft/internal/server"
	"aheft/internal/wire"
)

// The traced pass runs the daemon in process, single goroutine, on the
// same inputs. Each operation gets a root span, a real server.handle span
// per handler call, and shadow spans replaying the operation's input
// through the layers it crosses (see span). Rungs a workload's operations
// never reach are still measured, once per workflow cycle and on the same
// variant, under a separate op.ladder root — so every layer metric is a
// real reading on every workload, and op.ladder keeps those readings out
// of the attribution of the real operations.

// traceTenant is the traced pass's tenant; the mirror trackers share one
// history repository the way the daemon's tenant does.
const traceTenant = "bench-trace"

// primaryOp is the ledger line of one primary operation of the traced
// pass.
type primaryOp struct {
	root     int   // the op's root span
	handleNs int64 // Σ server.handle of the op
	allocs   uint64
	bytes    uint64
}

// rig is the in-process daemon and everything the shadow replays need.
type rig struct {
	sp  spec
	in  *inputs
	dir string
	srv *server.Server
	h   http.Handler
	tc  *tracer
	pol policy.Policy

	// recording is off for bare operations: no spans, no allocation
	// counters, no shadow replays — the baseline of trace.overhead_pct.
	recording bool
	bodies    [][]byte // per-variant submission body of traceTenant

	repo       *history.Repository // the mirror of traceTenant's history
	scratch    *history.Repository // target of the history.record rung
	adm        *admission.Controller
	prim       []primaryOp
	bareHandle []float64 // ns, primary ops of bare workflows
	wfs        int
	ladders    int
}

// analyticLadders is how many submit_analytic cycles carry the live
// ladder.
const analyticLadders = 3

func newRig(sp spec, in *inputs) (*rig, error) {
	dir, err := newRunDir()
	if err != nil {
		return nil, err
	}
	g := &rig{
		sp: sp, in: in, dir: dir, tc: newTracer(),
		pol:     policy.MustGet("aheft"),
		repo:    history.New(0),
		scratch: history.New(0),
		adm:     admission.New(admission.Config{}),
	}
	for _, v := range in.variants {
		body, err := encodeSubmission(sp, v, traceTenant)
		if err != nil {
			return nil, err
		}
		g.bodies = append(g.bodies, body)
	}
	return g, nil
}

// dataDir is where a durable in-process daemon journals.
func (g *rig) dataDir() string { return filepath.Join(g.dir, "data") }

// open starts the in-process daemon with the workload's configuration.
func (g *rig) open() error {
	cfg := server.Config{}
	if g.sp.durable {
		cfg.DataDir = g.dataDir()
		cfg.WALSync = "interval"
		cfg.SnapshotInterval = time.Hour
	}
	srv, err := server.Open(cfg)
	if err != nil {
		return err
	}
	g.srv, g.h = srv, srv.Handler()
	return nil
}

func (g *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = g.srv.Shutdown(ctx) // a drain timeout only means a failed op left a workflow live
}

// handle times fn as the daemon's share of an operation. When recording
// it files a server.handle span under root with the allocation counters'
// deltas; it always returns the time fn took.
func (g *rig) handle(root int, fn func()) (int64, span) {
	if !g.recording {
		t0 := time.Now()
		fn()
		return int64(time.Since(t0)), span{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := g.tc.begin("server.handle", root, g.tc.get(root).Op)
	fn()
	g.tc.end(id)
	runtime.ReadMemStats(&m1)
	s := g.tc.get(id)
	s.Allocs, s.Bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return s.dur(), *s
}

// call runs one request through the daemon's handler.
func (g *rig) call(root int, method, path string, body []byte) (int, []byte, int64, span) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	d, s := g.handle(root, func() { g.h.ServeHTTP(rec, req) })
	return rec.Code, rec.Body.Bytes(), d, s
}

// --- shadow rungs -------------------------------------------------------

func (g *rig) rungDecodeSubmission(parent int, body []byte) {
	g.tc.shadow(parent, "wire.decode_submission", func() {
		_, _ = wire.DecodeSubmission(body, wire.Limits{})
	})
}

func (g *rig) rungAdmission(parent int) {
	g.tc.shadow(parent, "admission.enqueue_dequeue", func() {
		_ = g.adm.Enqueue(admission.Item{ID: "shadow", Tenant: traceTenant})
		g.adm.TryDequeue()
	})
}

// rungNewModel binds the variant's catalog to its pool; a variant without
// files binds an empty catalog, which prices the binding alone.
func (g *rig) rungNewModel(parent int, v *variant) {
	set := v.sc.Files
	if set == nil {
		set = &data.Set{}
	}
	g.tc.shadow(parent, "data.new_model", func() {
		_, _ = data.NewModel(set, v.sc.Pool, v.sc.Graph, 0)
	})
}

func (g *rig) rungRunPolicy(parent int, v *variant) int {
	opts := policy.Options{Data: v.model}
	return g.tc.shadow(parent, "planner.run_policy", func() {
		_, _ = planner.RunPolicy(context.Background(), v.sc.Graph, v.sc.Estimator(), v.sc.Pool, g.pol, opts)
	})
}

// shadowKernel is a kernel of the benchmark's own on a variant, for the
// kernel rungs: cold ranks, static placement, snapshot + full reschedule.
type shadowKernel struct {
	k  *kernel.Kernel
	st *kernel.State
	s0 *schedule.Schedule
}

// rungPlan replays initial planning: kernel.New + Ranks, then Static.
func (g *rig) rungPlan(parent int, v *variant) *shadowKernel {
	sk := &shadowKernel{}
	initial := v.sc.Pool.Initial()
	g.tc.shadow(parent, "kernel.rank", func() {
		sk.k = kernel.New(v.sc.Graph, cost.Exact(v.sc.Table))
		if v.model != nil {
			sk.k.SetData(v.model)
		}
		_, _, _ = sk.k.Ranks(initial)
	})
	g.tc.shadow(parent, "kernel.place", func() {
		sk.s0, _ = sk.k.Static(initial, kernel.Options{})
	})
	sk.st = sk.k.NewState(v.sc.Pool.Size())
	return sk
}

// rungReschedule replays one evaluation: snapshot the plan at clock, then
// a full replan over rs.
func (g *rig) rungReschedule(parent int, sk *shadowKernel, plan *schedule.Schedule, clock float64, rs []grid.Resource) {
	if plan == nil || len(rs) == 0 {
		return
	}
	g.tc.shadow(parent, "kernel.reschedule", func() {
		sk.st.Snapshot(plan, clock, kernel.SnapshotOptions{})
		_, _ = sk.k.Reschedule(rs, sk.st, kernel.Options{})
	})
}

// rungAnalyticKernel lays the kernel's share under a planner.run_policy
// span: one plan, one reschedule per pool change the run lives through.
func (g *rig) rungAnalyticKernel(parent int, v *variant) {
	sk := g.rungPlan(parent, v)
	if sk.s0 == nil {
		return
	}
	for _, t := range v.sc.Pool.ChangeTimes() {
		if t >= sk.s0.Makespan() {
			break
		}
		g.rungReschedule(parent, sk, sk.s0, t, v.sc.Pool.AvailableAt(t))
	}
}

// mirror follows one live workflow with a tracker of the benchmark's own,
// fed the same reports as the daemon's, so the feedback, history, kernel
// and durable rungs replay on the real state.
type mirror struct {
	v     *variant
	cfg   feedback.Config
	tr    *feedback.Tracker
	sk    *shadowKernel
	store *durable.Shard // rung target; nil skips the durable rungs
	dir   string
	last  *feedback.TrackerState
}

// newMirror replays feedback.New (with the kernel's share nested) under
// parent and opens the WAL the durable rungs write to.
func (g *rig) newMirror(parent int, v *variant) (*mirror, error) {
	m := &mirror{v: v, cfg: feedback.Config{
		Graph: v.sc.Graph, Prior: cost.Exact(v.sc.Table), Pool: v.sc.Pool,
		History: g.repo, Policy: g.pol, Opts: policy.Options{Data: v.model},
		VarianceThreshold: g.sp.variance,
	}}
	var err error
	id := g.tc.shadow(parent, "feedback.new", func() { m.tr, err = feedback.New(m.cfg) })
	if err != nil {
		return nil, err
	}
	m.sk = g.rungPlan(id, v)
	g.wfs++
	m.dir = filepath.Join(g.dir, fmt.Sprintf("rung-wal-%d", g.wfs))
	if m.store, _, err = durable.Open(m.dir, durable.SyncInterval, 0); err != nil {
		return nil, err
	}
	return m, nil
}

// report replays one report batch through the layers it crosses. persist
// adds the durable path's per-report work (export + append).
func (g *rig) report(parent int, m *mirror, batch []wire.ReportEvent, body []byte, ackPlan *wire.Plan, persist bool) {
	g.tc.shadow(parent, "wire.decode_report", func() { _, _ = wire.DecodeReport(body, 0) })
	prev := m.tr.Plan()
	var out *feedback.Outcome
	id := g.tc.shadow(parent, "feedback.apply_record", func() { out, _ = m.tr.Apply(batch) })
	if out != nil && len(out.Decisions) > 0 {
		g.tc.get(id).Name = "feedback.apply_evaluate"
	}
	for _, ev := range batch {
		if ev.Kind == wire.ReportJobFinished && ev.Duration > 0 {
			op := m.v.sc.Graph.Jobs()[ev.Job].Op
			g.tc.shadow(id, "history.record", func() { _ = g.scratch.Record(op, grid.ID(ev.Resource), ev.Duration) })
		}
	}
	if out != nil {
		for _, d := range out.Decisions {
			g.rungReschedule(id, m.sk, prev, d.Clock, m.tr.Available())
		}
	}
	if persist && m.store != nil {
		g.persist(parent, m)
	}
	if ackPlan != nil {
		g.tc.shadow(parent, "wire.encode_plan", func() { _, _ = json.Marshal(ackPlan) })
	}
}

// persist replays the durable path of one report: export the tracker,
// append it to a WAL.
func (g *rig) persist(parent int, m *mirror) {
	g.tc.shadow(parent, "feedback.export_state", func() { m.last = m.tr.ExportState() })
	g.tc.shadow(parent, "durable.append", func() { _, _ = m.store.Append(wire.WALState, m.last) })
}

// recoverRungs replays the read side of durability on the mirror's own
// WAL: load the log, rebuild the tracker from its last exported state.
func (g *rig) recoverRungs(parent int, m *mirror) {
	if m.store == nil {
		return
	}
	if m.last == nil {
		g.persist(parent, m)
	}
	_ = m.store.Close()
	g.tc.shadow(parent, "durable.load", func() { _, _ = durable.Load(m.dir) })
	cfg := m.cfg
	cfg.History = history.New(0)
	g.tc.shadow(parent, "feedback.restore", func() { _, _ = feedback.Restore(cfg, m.last) })
	os.RemoveAll(m.dir)
	m.store = nil
}

// liveLadder enacts a variant against a mirror alone — no daemon — with
// every live rung under parent. It is how workloads whose operations
// never report (submit_analytic) or never plan live still read those
// rungs.
func (g *rig) liveLadder(parent int, v *variant, half bool) (*mirror, error) {
	m, err := g.newMirror(parent, v)
	if err != nil {
		return nil, err
	}
	plan := planDoc(m.tr, "initial")
	g.tc.shadow(parent, "wire.encode_plan", func() { _, _ = json.Marshal(plan) })
	tr := drawTruth(v, g.sp.noise, g.sp.churn, rngFor(g.in.seed, "ladder", g.wfs))
	en := newEnactor(v, tr, plan)
	for batch := en.next(); batch != nil; batch = en.next() {
		body, err := wire.EncodeReport(&wire.Report{Events: batch})
		if err != nil {
			return nil, err
		}
		gen := m.tr.Generation()
		g.report(parent, m, batch, body, nil, true)
		if m.tr.Generation() != gen && !m.tr.Done() {
			en.adopt(planDoc(m.tr, "replan"))
		}
		if half && en.nFinished >= en.n/2 {
			break
		}
	}
	return m, nil
}

// planDoc is the wire form of a tracker's current plan.
func planDoc(tr *feedback.Tracker, trigger string) *wire.Plan {
	s := tr.Plan()
	as := s.Assignments()
	doc := &wire.Plan{Generation: tr.Generation(), Trigger: trigger, Makespan: s.Makespan(),
		Assignments: make([]wire.Assignment, len(as))}
	for i, a := range as {
		doc.Assignments[i] = wire.Assignment{Job: int(a.Job), Resource: int(a.Resource), Start: a.Start, Finish: a.Finish}
	}
	return doc
}

// --- traced operations --------------------------------------------------

// tracedAnalytic is one submit_analytic operation: recorded with its
// shadow replays (and, for the first few, the live ladder), or bare.
func (g *rig) tracedAnalytic(v *variant, idx int) error {
	body := g.bodies[idx]
	root := 0
	if g.recording {
		root = g.tc.newOp("op.submit_analytic")
	}
	code, resp, d1, h1 := g.call(root, "POST", "/v1/workflows", body)
	if code != 202 {
		return fmt.Errorf("traced submit: HTTP %d: %s", code, resp)
	}
	var sub wire.Submitted
	if err := json.Unmarshal(resp, &sub); err != nil {
		return err
	}
	code, stream, d2, h2 := g.call(root, "GET", "/v1/workflows/"+sub.ID+"/events", nil)
	if code != 200 || !bytes.Contains(stream, []byte(`"kind":"done"`)) {
		return fmt.Errorf("traced events: HTTP %d", code)
	}
	if !g.recording {
		g.bareHandle = append(g.bareHandle, float64(d1+d2))
		return nil
	}
	g.tc.end(root)
	g.rungDecodeSubmission(root, body)
	g.rungAdmission(root)
	g.rungAnalyticKernel(g.rungRunPolicy(root, v), v)
	g.prim = append(g.prim, primaryOp{
		root: root, handleNs: d1 + d2,
		allocs: h1.Allocs + h2.Allocs, bytes: h1.Bytes + h2.Bytes,
	})
	// The live ladder costs two orders of magnitude more than the
	// operation it rides on; a few cycles give every rung its samples.
	if g.ladders >= analyticLadders {
		return nil
	}
	g.ladders++
	lad := g.tc.newOp("op.ladder")
	defer g.tc.end(lad)
	g.rungNewModel(lad, v)
	m, err := g.liveLadder(lad, v, false)
	if err != nil {
		return err
	}
	g.recoverRungs(lad, m)
	return nil
}

// tracedLive is one live workflow: the initial-plan operation, one report
// operation per batch — alternately recorded and bare, so both
// populations see the same workflow — and the ladder of what live
// operations never reach.
func (g *rig) tracedLive(v *variant, idx int) error {
	body := g.bodies[idx]
	g.recording = true
	root := g.tc.newOp("op.initial_plan")
	code, resp, _, _ := g.call(root, "POST", "/v1/workflows", body)
	if code != 202 {
		return fmt.Errorf("traced submit: HTTP %d: %s", code, resp)
	}
	var sub wire.Submitted
	if err := json.Unmarshal(resp, &sub); err != nil {
		return err
	}
	var plan wire.Plan
	for {
		code, resp, _, _ = g.call(root, "GET", "/v1/workflows/"+sub.ID+"/plan", nil)
		if code == 409 {
			runtime.Gosched() // the shard worker is planning
			continue
		}
		if code != 200 {
			return fmt.Errorf("traced plan: HTTP %d", code)
		}
		if err := json.Unmarshal(resp, &plan); err != nil {
			return err
		}
		break
	}
	g.tc.end(root)
	g.rungDecodeSubmission(root, body)
	if v.sc.Files != nil {
		g.rungNewModel(root, v)
	}
	g.rungAdmission(root)
	m, err := g.newMirror(root, v)
	if err != nil {
		return err
	}
	g.tc.shadow(root, "wire.encode_plan", func() { _, _ = json.Marshal(&plan) })

	en := newEnactor(v, drawTruth(v, g.sp.noise, g.sp.churn, rngFor(g.in.seed, "traced", g.wfs)), &plan)
	path := "/v1/workflows/" + sub.ID + "/report"
	for n := 0; ; n++ {
		batch := en.next()
		if batch == nil {
			break
		}
		body, err := wire.EncodeReport(&wire.Report{Events: batch})
		if err != nil {
			return err
		}
		g.recording = n%2 == 0
		if g.recording {
			root = g.tc.newOp("op.report")
		}
		code, resp, d, h := g.call(root, "POST", path, body)
		if code != 200 {
			return fmt.Errorf("traced report: HTTP %d: %s", code, resp)
		}
		var ack wire.ReportAck
		if err := json.Unmarshal(resp, &ack); err != nil {
			return err
		}
		if ack.Plan != nil && !ack.Done {
			en.adopt(ack.Plan)
		}
		evaluating := ack.Decisions >= 1
		if !g.recording {
			// The mirror still follows every report, untimed.
			_, _ = m.tr.Apply(batch)
			if evaluating {
				g.bareHandle = append(g.bareHandle, float64(d))
			}
			continue
		}
		g.tc.end(root)
		g.report(root, m, batch, body, ack.Plan, g.sp.durable)
		if evaluating {
			g.prim = append(g.prim, primaryOp{root: root, handleNs: d, allocs: h.Allocs, bytes: h.Bytes})
		}
	}
	lad := g.tc.newOp("op.ladder")
	g.rungAnalyticKernel(g.rungRunPolicy(lad, v), v)
	if v.sc.Files == nil {
		g.rungNewModel(lad, v)
	}
	g.recoverRungs(lad, m)
	g.tc.end(lad)
	return nil
}

// tracedRun is the traced pass of a timed workload: a third of the run's
// seconds over the variants in order, operations alternating between
// recorded and bare.
func tracedRun(r *result, sp spec, in *inputs, o options) {
	g, err := newRig(sp, in)
	if err == nil {
		err = g.open()
	}
	if err != nil {
		r.errorf("traced pass: %v", err)
		return
	}
	defer g.close()
	budget := time.Duration(o.seconds / 3 * float64(time.Second))
	began := time.Now()
	for n := 0; n < 2 || time.Since(began) < budget; n++ {
		idx := n % len(in.variants)
		if sp.live {
			err = g.tracedLive(in.variants[idx], idx)
		} else {
			g.recording = n%2 == 0
			err = g.tracedAnalytic(in.variants[idx], idx)
		}
		if err != nil {
			r.errorf("traced pass: %v", err)
			return
		}
	}
	g.finish(r)
}

// finish turns the spans into the traced (T) layer metrics and writes the
// span file.
func (g *rig) finish(r *result) {
	l := r.layer
	byName := map[string][]float64{}
	for _, s := range g.tc.spans {
		if s.Shadow {
			byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e3)
		}
	}
	for _, name := range tracedRungs {
		l[name+"_us"] = median(byName[name])
		r.samples[name+"_us"] = len(byName[name])
	}
	l["durable.load_ms"] = median(byName["durable.load"]) / 1e3
	r.samples["durable.load_ms"] = len(byName["durable.load"])

	// The ledger of the primary operations: what the daemon's share of
	// each (server.handle) is attributed to. Top-level shadows are charged
	// whole against the handler time; per layer, self time is charged, so
	// kernel time nested in a feedback or planner span counts as kernel's.
	self := selfTimes(g.tc.spans)
	primOf := make(map[int]int, len(g.prim)) // op id → index into g.prim
	for i, p := range g.prim {
		primOf[g.tc.get(p.root).Op] = i
	}
	attributed := make([]int64, len(g.prim))
	perLayer := map[string][]float64{}
	sums := make([]map[string]int64, len(g.prim))
	for _, s := range g.tc.spans {
		i, ok := primOf[s.Op]
		if !ok || !s.Shadow {
			continue
		}
		if s.Parent == g.prim[i].root {
			attributed[i] += s.dur()
		}
		if sums[i] == nil {
			sums[i] = map[string]int64{}
		}
		sums[i][s.Name] += self[s.ID]
	}
	var handle, unattr, allocs, bytesPer []float64
	for i, p := range g.prim {
		handle = append(handle, float64(p.handleNs)/1e3)
		unattr = append(unattr, float64(p.handleNs-attributed[i])/1e3)
		allocs = append(allocs, float64(p.allocs))
		bytesPer = append(bytesPer, float64(p.bytes))
		for name, ns := range sums[i] {
			perLayer[name] = append(perLayer[name], float64(ns)/1e3)
		}
	}
	names := make([]string, 0, len(perLayer))
	for name := range perLayer {
		names = append(names, name)
	}
	// A layer absent from some operations (a plan encoded only on
	// adoption) is charged its mean over all of them.
	share := func(name string) float64 {
		return mean(perLayer[name]) * float64(len(perLayer[name])) / float64(len(g.prim))
	}
	sort.Slice(names, func(i, j int) bool { return share(names[i]) > share(names[j]) })
	ledger := fmt.Sprintf("ledger, µs per primary operation (n=%d): server.handle p50 %.0f, unattributed p50 %.0f; mean self time by layer:",
		len(g.prim), median(handle), median(unattr))
	for _, name := range names {
		ledger += fmt.Sprintf(" %s %.1f", name, share(name))
	}
	r.notes = append(r.notes, ledger)
	l["server.handle_p50_us"] = median(handle)
	r.samples["server.handle_p50_us"] = len(handle)
	l["server.unattributed_us"] = median(unattr)
	l["server.allocs_per_op"] = mean(allocs)
	l["server.bytes_per_op"] = mean(bytesPer)
	l["http.overhead_p50_us"] = r.e2e["latency_p50_ms"]*1e3 - median(handle)
	if bare := median(g.bareHandle); bare > 0 {
		l["trace.overhead_pct"] = (median(handle)*1e3 - bare) / bare * 100
	}
	kb := 0.0
	for _, b := range g.bodies {
		kb += float64(len(b)) / 1024
	}
	l["wire.submission_kb"] = kb / float64(len(g.bodies))

	path, err := writeTrace(g.sp.name, g.tc.spans)
	if err != nil {
		r.errorf("write trace: %v", err)
		return
	}
	r.notes = append(r.notes, fmt.Sprintf("traced pass: %d spans in %s", len(g.tc.spans), path))
}

// tracedRungs are the shadow span names reported as <name>_us medians.
var tracedRungs = []string{
	"wire.decode_submission", "wire.decode_report", "wire.encode_plan",
	"admission.enqueue_dequeue",
	"kernel.rank", "kernel.place", "kernel.reschedule",
	"planner.run_policy",
	"feedback.apply_record", "feedback.apply_evaluate", "feedback.export_state", "feedback.restore",
	"history.record", "data.new_model", "durable.append",
}
