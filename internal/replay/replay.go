// Package replay re-drives a flight recording (server.Config.RecordDir)
// through a fresh daemon and asserts that the decision stream reproduces
// bit-identically — the executable proof that every daemon decision is a
// deterministic function of its recorded inputs.
//
// A recording is one stream per shard (record-shard-<i>.wal, WAL-framed
// wire records; see internal/wire/record.go). Each stream interleaves
// the shard's inputs in worker-processing order with the outputs the
// worker emitted between them. Replay validates every stream (header,
// trailer, framing), boots a daemon with the recorded configuration and
// its own recorder, drives each shard's inputs strictly one at a time —
// submissions through Server.InjectRecorded so the original IDs (and
// with them shard routing) reproduce, reports and grid registrations
// through the HTTP handler — then drains the daemon and compares the
// two output sequences record for record.
//
// One-at-a-time driving matters: with at most one pending item per
// shard, the worker's select between its intake queue and its command
// channel always has exactly one ready source, so the replay's
// processing order is the recorded order by construction, not by luck.
//
// What must match: the per-shard sequence of rec-decision, rec-plan and
// rec-done payloads, byte for byte. Decision payloads deliberately
// exclude the process-local telemetry (elapsed times), which a replay
// does not reproduce (see planner.Decision). Plan payloads carry an FNV-1a hash
// over every placement, so "same generation, same makespan, different
// assignment" still diverges loudly.
//
// What must fail loudly instead of diverging silently: a torn tail
// (daemon killed mid-append), a missing trailer (recording still being
// written, or the process died), and an unclean trailer (force-cancelled
// drain cut live runs mid-decision). Run refuses all three with a
// diagnostic naming the stream and the reason.
package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aheft/internal/durable"
	"aheft/internal/server"
	"aheft/internal/wire"
)

// Options tunes a replay run.
type Options struct {
	// Scratch is the directory for the replay daemon's own recording;
	// empty means a fresh os.MkdirTemp directory, removed afterwards.
	Scratch string
	// Timeout bounds the whole drive-and-drain; 0 means 60s.
	Timeout time.Duration
}

// Result reports one replay.
type Result struct {
	Shards  int
	Inputs  int // input records driven
	Outputs int // output records compared
	// Divergences lists every mismatch between the recorded and replayed
	// output sequences (empty on a bit-identical replay).
	Divergences []string
	// Digest is the replayed output sequence in canonical line form
	// ("shard=N kind payload"), one line per output record — two replays
	// of the same recording must produce identical digests.
	Digest []string
}

// Identical reports whether the replay reproduced the recording.
func (r *Result) Identical() bool { return len(r.Divergences) == 0 }

// stream is one parsed per-shard recording.
type stream struct {
	shard   int
	header  wire.RecHeader
	records []*wire.WALRecord // between header and trailer
}

func isOutput(kind string) bool {
	return kind == wire.RecDecision || kind == wire.RecPlan || kind == wire.RecDone
}

// load parses and validates every shard stream of a recording. It is
// the gate that turns adversarial recordings into diagnostics: torn
// frames, missing or unclean trailers and header disagreements are
// errors here, before any replay work starts. Run surfaces them
// verbatim.
func load(dir string) ([]stream, error) {
	first, err := loadStream(filepath.Join(dir, wire.RecordName(0)))
	if err != nil {
		return nil, err
	}
	n := first.header.Shards
	if n <= 0 {
		return nil, fmt.Errorf("replay: %s: header names %d shards", wire.RecordName(0), n)
	}
	streams := []stream{*first}
	for i := 1; i < n; i++ {
		st, err := loadStream(filepath.Join(dir, wire.RecordName(i)))
		if err != nil {
			return nil, err
		}
		if st.header.Shards != n || st.header.Shard != i {
			return nil, fmt.Errorf("replay: %s: header (shard %d of %d) disagrees with %s (%d shards)",
				wire.RecordName(i), st.header.Shard, st.header.Shards, wire.RecordName(0), n)
		}
		streams = append(streams, *st)
	}
	return streams, nil
}

func loadStream(path string) (*stream, error) {
	name := filepath.Base(path)
	records, torn, err := durable.ReadLog(path)
	if err != nil {
		return nil, fmt.Errorf("replay: %s: %w", name, err)
	}
	if torn {
		return nil, fmt.Errorf("replay: %s: torn tail — the recording daemon was killed mid-append; the stream is incomplete and cannot replay faithfully", name)
	}
	if len(records) == 0 || records[0].Kind != wire.RecBegin {
		return nil, fmt.Errorf("replay: %s: missing %s header", name, wire.RecBegin)
	}
	st := &stream{}
	if err := json.Unmarshal(records[0].Data, &st.header); err != nil {
		return nil, fmt.Errorf("replay: %s: decode header: %w", name, err)
	}
	st.shard = st.header.Shard
	last := records[len(records)-1]
	if last.Kind != wire.RecEnd {
		return nil, fmt.Errorf("replay: %s: no %s trailer — the recording is still being written, or the daemon died before finalizing it", name, wire.RecEnd)
	}
	var trailer wire.RecTrailer
	if err := json.Unmarshal(last.Data, &trailer); err != nil {
		return nil, fmt.Errorf("replay: %s: decode trailer: %w", name, err)
	}
	if !trailer.Clean {
		return nil, fmt.Errorf("replay: %s: unclean trailer — the drain was force-cancelled and cut live workflows mid-decision; the tail is not reproducible", name)
	}
	st.records = records[1 : len(records)-1]
	return st, nil
}

// Run replays the recording in dir and compares decision streams.
func Run(dir string, opts Options) (*Result, error) {
	streams, err := load(dir)
	if err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	deadline := time.Now().Add(timeout)

	scratch := opts.Scratch
	if scratch == "" {
		scratch, err = os.MkdirTemp("", "aheft-replay-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(scratch)
	}
	hdr := streams[0].header
	srv, err := server.Open(server.Config{
		Shards:            hdr.Shards,
		DefaultPolicy:     hdr.Policy,
		VarianceThreshold: hdr.VarianceThreshold,
		RecordDir:         scratch,
	})
	if err != nil {
		return nil, fmt.Errorf("replay: boot daemon: %w", err)
	}

	res := &Result{Shards: hdr.Shards}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		inputs  int
		driveEr error
	)
	for i := range streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			n, err := driveShard(srv, st, deadline)
			mu.Lock()
			inputs += n
			if err != nil && driveEr == nil {
				driveEr = err
			}
			mu.Unlock()
		}(&streams[i])
	}
	wg.Wait()

	// Drain: finishes in-flight work and finalizes the replay recording.
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	shutErr := srv.Shutdown(ctx)
	if driveEr != nil {
		return nil, driveEr
	}
	if shutErr != nil {
		return nil, fmt.Errorf("replay: drain: %w", shutErr)
	}
	res.Inputs = inputs

	replayed, err := load(scratch)
	if err != nil {
		return nil, fmt.Errorf("replayed recording unreadable: %w", err)
	}
	for i := range streams {
		want := outputs(&streams[i])
		got := outputs(&replayed[i])
		res.Outputs += len(want)
		for _, r := range got {
			res.Digest = append(res.Digest, fmt.Sprintf("shard=%d %s %s", i, r.Kind, r.Data))
		}
		n := len(want)
		if len(got) < n {
			n = len(got)
		}
		for k := 0; k < n; k++ {
			if want[k].Kind != got[k].Kind || !bytes.Equal(want[k].Data, got[k].Data) {
				res.Divergences = append(res.Divergences, fmt.Sprintf(
					"shard %d, output %d: recorded %s %s, replayed %s %s",
					i, k, want[k].Kind, want[k].Data, got[k].Kind, got[k].Data))
			}
		}
		if len(got) != len(want) {
			res.Divergences = append(res.Divergences, fmt.Sprintf(
				"shard %d: recorded %d output records, replay produced %d", i, len(want), len(got)))
		}
	}
	return res, nil
}

func outputs(st *stream) []*wire.WALRecord {
	var out []*wire.WALRecord
	for _, r := range st.records {
		if isOutput(r.Kind) {
			out = append(out, r)
		}
	}
	return out
}

// driveShard re-drives one shard's inputs in recorded order, waiting
// out each record's effect before the next so the worker never sees two
// pending items at once.
func driveShard(srv *server.Server, st *stream, deadline time.Time) (int, error) {
	h := srv.Handler()
	n := 0
	for _, r := range st.records {
		if isOutput(r.Kind) {
			continue
		}
		var body wire.RecBody
		if err := json.Unmarshal(r.Data, &body); err != nil {
			return n, fmt.Errorf("replay: shard %d: decode %s: %w", st.shard, r.Kind, err)
		}
		n++
		switch r.Kind {
		case wire.RecGrid:
			code, resp := do(h, "PUT", "/v1/grids/"+body.Grid, body.Body)
			if code != http.StatusCreated {
				return n, fmt.Errorf("replay: shard %d: grid %q: %d %s", st.shard, body.Grid, code, resp)
			}
		case wire.RecSubmission:
			if _, err := srv.InjectRecorded(body.Workflow, body.Body); err != nil {
				return n, fmt.Errorf("replay: shard %d: inject %s: %w", st.shard, body.Workflow, err)
			}
			if err := awaitStarted(h, body, deadline); err != nil {
				return n, fmt.Errorf("replay: shard %d: %w", st.shard, err)
			}
		case wire.RecReport:
			// The worker's reply lands only after the report (and every
			// decision it triggered) is fully processed, so returning
			// here is returning from the recorded turn. Rejected and
			// duplicate reports were recorded too (they consumed a turn)
			// and re-reject identically — any status is acceptable.
			do(h, "POST", "/v1/workflows/"+body.Workflow+"/report", body.Body)
		default:
			return n, fmt.Errorf("replay: shard %d: unknown record kind %q", st.shard, r.Kind)
		}
		if time.Now().After(deadline) {
			return n, fmt.Errorf("replay: shard %d: timeout mid-drive", st.shard)
		}
	}
	return n, nil
}

// awaitStarted blocks until an injected submission has been picked up by
// its worker: a live workflow until its initial plan exists, an analytic
// one until it is terminal. Without this wait the next record could race
// the worker's dequeue and break one-at-a-time driving.
func awaitStarted(h http.Handler, body wire.RecBody, deadline time.Time) error {
	var probe struct {
		Mode string `json:"mode"`
	}
	_ = json.Unmarshal(body.Body, &probe)
	live := probe.Mode == wire.ModeLive
	for {
		code, resp := do(h, "GET", "/v1/workflows/"+body.Workflow, nil)
		if code == http.StatusOK {
			var st wire.Status
			if err := json.Unmarshal(resp, &st); err == nil {
				switch {
				case st.State == server.StateDone || st.State == server.StateFailed:
					return nil
				case live && st.State == server.StateRunning && st.Generation > 0:
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("workflow %s: timeout waiting for pickup (last status %d %s)", body.Workflow, code, resp)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func do(h http.Handler, method, path string, body []byte) (int, []byte) {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}
