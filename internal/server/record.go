package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"aheft/internal/durable"
	"aheft/internal/obs"
	"aheft/internal/wire"
)

// This file is the daemon's flight recorder and its trace endpoint —
// the record/replay half of the observability layer.
//
// The recorder taps every external input on the shard worker's side of
// the queue: a submission is recorded at the moment the worker starts
// executing it, a report at the moment the worker applies it, so each
// per-shard stream is in *processing* order — the order that, together
// with the deterministic kernel, fully determines the shard's decision
// sequence (the worker's select between intake and commands is the one
// nondeterminism the stream pins down). Grid registrations are recorded
// on the owning grid's shard at registration time; a submission
// referencing the grid can only be accepted (and hence worker-recorded)
// after the registration's 201, so the stream order preserves that
// dependency. Outputs (decisions, plan generations, terminals) are
// appended by the same worker goroutine as they are emitted, giving
// replay an oracle to compare against in the same file.
//
// Each stream is a durable.Shard, the journal's store, in its own
// directory (wire.RecordName); replay reads it back with durable.Load.
//
// Wall-clock readings are captured on every record (RecBody.At and the
// stream header) for diagnosis; none of them feed scheduling — every
// scheduling clock rides inside the report bodies — so replay compares
// streams with the wall fields masked (see internal/replay).

// recorder is the per-shard record stream set, one durable store per
// shard. Append errors degrade the recording (counted in /metrics
// recorder_errors) without touching the serving path.
type recorder struct {
	logs []*durable.Shard
	m    *Metrics
}

// openRecorder starts one fresh stream per shard under dir — whatever a
// previous recording left there is removed — and writes each stream's
// header.
func openRecorder(dir string, cfg Config, m *Metrics) (*recorder, error) {
	r := &recorder{m: m}
	now := time.Now().UnixNano()
	for i := 0; i < cfg.Shards; i++ {
		path := filepath.Join(dir, wire.RecordName(i))
		err := os.RemoveAll(path)
		var l *durable.Shard
		if err == nil {
			l, _, err = durable.Open(path, durable.SyncInterval, 0)
		}
		if err != nil {
			for _, prev := range r.logs {
				prev.Close()
			}
			return nil, fmt.Errorf("server: record dir: %w", err)
		}
		r.logs = append(r.logs, l)
		r.append(i, wire.RecBegin, wire.RecHeader{
			V:                 wire.Version,
			Shard:             i,
			Shards:            cfg.Shards,
			Policy:            cfg.DefaultPolicy,
			VarianceThreshold: cfg.VarianceThreshold,
			StartUnixNano:     now,
		})
	}
	return r, nil
}

func (r *recorder) append(shard int, kind string, payload any) {
	data, err := json.Marshal(payload)
	if err == nil {
		_, err = r.logs[shard].Append(kind, wire.RawDoc(data))
	}
	if err != nil {
		r.m.count(func(c *MetricsDoc) { c.RecorderErrors++ })
		return
	}
	r.m.count(func(c *MetricsDoc) { c.RecorderRecords++ })
}

func (r *recorder) submission(shard int, id string, body json.RawMessage) {
	r.append(shard, wire.RecSubmission, wire.RecBody{Workflow: id, At: time.Now().UnixNano(), Body: body})
}

func (r *recorder) report(shard int, id string, body json.RawMessage) {
	r.append(shard, wire.RecReport, wire.RecBody{Workflow: id, At: time.Now().UnixNano(), Body: body})
}

func (r *recorder) grid(shard int, name string, spec json.RawMessage) {
	r.append(shard, wire.RecGrid, wire.RecBody{Grid: name, At: time.Now().UnixNano(), Body: spec})
}

func (r *recorder) decision(shard int, id string, d *wire.Decision) {
	r.append(shard, wire.RecDecision, wire.RecDecided{
		Workflow: id, Clock: d.Clock, PoolSize: d.PoolSize,
		OldMakespan: d.OldMakespan, NewMakespan: d.NewMakespan, Adopted: d.Adopted,
		JobsFinished: d.JobsFinished, Trigger: d.Trigger, Arrived: d.Arrived,
	})
}

func (r *recorder) plan(shard int, p *wire.Plan) {
	r.append(shard, wire.RecPlan, wire.RecPlanned{
		Workflow:   p.Workflow,
		Generation: p.Generation,
		Trigger:    p.Trigger,
		Makespan:   p.Makespan,
		PlanHash:   wire.HashPlan(p.Assignments),
	})
}

func (r *recorder) done(shard int, id, status string, makespan float64, errMsg string) {
	r.append(shard, wire.RecDone, wire.RecFinished{
		Workflow: id, Status: status, Makespan: makespan, Error: errMsg,
	})
}

// finalize writes each stream's trailer and closes it. Called once,
// after every worker has exited, so all worker-side appends are done.
// clean reports whether the drain completed without force-cancelling —
// a force-cancelled tail cannot replay bit-identically, and the trailer
// says so.
func (r *recorder) finalize(clean bool) {
	now := time.Now().UnixNano()
	for i, l := range r.logs {
		r.append(i, wire.RecEnd, wire.RecTrailer{Clean: clean, EndUnixNano: now})
		l.Close()
	}
}

// InjectRecorded admits a recorded submission under its original
// daemon-assigned ID, bypassing HTTP intake: the replay harness drives
// recorded streams through this so IDs — and with them shard routing —
// reproduce exactly, including the sequence gaps rejected submissions
// left behind. It returns the target shard.
func (s *Server) InjectRecorded(id string, body []byte) (int, error) {
	wf, _, err := s.buildWorkflow(id, append([]byte(nil), body...))
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	if _, dup := s.wfs[id]; dup {
		s.mu.Unlock()
		return 0, fmt.Errorf("workflow %q already injected", id)
	}
	s.wfs[id] = wf
	if n := parseWorkflowSeq(id); n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
	s.metrics.count(func(c *MetricsDoc) { c.Submissions++ })
	if err := s.admit(wf); err != nil {
		return 0, fmt.Errorf("shard %d admission refused: %w", wf.shard, err)
	}
	return wf.shard, nil
}

// handleTrace serves the workflow's retained span log as JSON Lines
// (one obs.Span object per line, completion order).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusConflict, errorDoc{Error: "tracing is disabled (start the daemon with tracing enabled)"})
		return
	}
	id := r.PathValue("id")
	if _, ok := s.lookup(id); !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown workflow"})
		return
	}
	spans := s.tracer.Spans(id)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return
		}
	}
}

// Tracer exposes the causal tracer (nil when tracing is disabled) for
// tests and embedding callers.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }
