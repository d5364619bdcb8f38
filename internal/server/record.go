package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"aheft/internal/durable"
	"aheft/internal/wire"
)

// This file is the daemon's flight recorder and its trace endpoint —
// the record/replay half of the observability layer.
//
// The recorder taps every external input in one place, shard.apply, on
// the worker and just before the input takes effect, so each per-shard
// stream is in *processing* order — the order that, together with the
// deterministic kernel, fully determines the shard's decision sequence
// (the worker's select between intake and commands is the one
// nondeterminism the stream pins down). A grid is recorded and journalled
// before it is visible, so a submission naming it is recorded after it.
// Outputs (decisions, plan generations, terminals) are appended by the
// same worker as they are emitted, giving replay, which hands each input
// back to Server.Apply, an oracle to compare against in the same stream.
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

// input records one input shard.apply is about to take effect.
func (r *recorder) input(shard int, kind string, in wire.RecBody) {
	in.At = time.Now().UnixNano()
	r.append(shard, kind, in)
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

// Apply makes one recorded input take effect through the path a request
// takes to shard.apply, and returns once the worker has applied it, so a
// caller applying a stream one input at a time replays its processing
// order. A submission keeps its recorded ID, and with it its shard. An
// input refused before it takes effect returns an error and leaves no
// record; a batch the tracker refuses was applied as a refusal and
// returns nil.
func (s *Server) Apply(kind string, in wire.RecBody) error {
	var res cmdResult
	switch kind {
	case wire.RecSubmission:
		wf, _, err := s.buildWorkflow(in.Workflow, append([]byte(nil), in.Body...))
		if err != nil {
			return err
		}
		applied := make(chan cmdResult, 1)
		wf.applied = applied // the worker may drop wf.running once it has started it
		s.mu.Lock()
		if _, dup := s.wfs[wf.id]; dup {
			s.mu.Unlock()
			return fmt.Errorf("workflow %q already exists", wf.id)
		}
		s.wfs[wf.id] = wf
		s.seq = max(s.seq, parseWorkflowSeq(wf.id))
		s.mu.Unlock()
		s.metrics.count(func(c *MetricsDoc) { c.Submissions++ })
		if err := s.admit(wf); err != nil {
			return fmt.Errorf("shard %d admission refused: %w", wf.shard, err)
		}
		res, _ = s.awaitReply(context.Background(), applied)
	case wire.RecReport:
		wf, ok := s.lookup(in.Workflow)
		if !ok {
			return fmt.Errorf("unknown workflow %q", in.Workflow)
		}
		rep, err := wire.DecodeReport(in.Body, 0)
		if err != nil {
			return err
		}
		if res, _ = s.dispatch(context.Background(), wf.shard, shardCmd{wf: wf, report: rep, raw: in.Body}); res.code == http.StatusBadRequest {
			return nil // the tracker's refusal
		}
	case wire.RecGrid:
		_, res, _ = s.register(context.Background(), in.Grid, in.Body)
	default:
		return fmt.Errorf("unknown input kind %q", kind)
	}
	if res.errMsg != "" {
		return errors.New(res.errMsg)
	}
	return nil
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
