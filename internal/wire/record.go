// Flight-recorder record schema: the versioned record stream the
// daemon's per-shard recorder tap appends (reusing the WAL envelope,
// WALRecord, and the durable layer's frame format) and cmd/replay
// re-drives. One stream per shard, in the order the shard's worker
// goroutine processed the inputs — which, because every workflow's
// decisions are made on exactly one shard goroutine, is the order that
// fully determines the shard's decision sequence.
//
// Two record families share a stream:
//
//   - inputs (RecGrid, RecSubmission, RecReport): every external fact
//     that reached the shard, with its raw wire body verbatim;
//   - outputs (RecDecision, RecPlan, RecDone): the decision /
//     plan-generation / adoption sequence the shard produced, in
//     emission order.
//
// Replay re-drives the inputs of each stream, strictly one at a time
// per shard, through a fresh server and compares the fresh output
// records against the recorded ones. The kernel is deterministic and
// every scheduling clock rides inside the report bodies, so the
// comparison is bit-identical; wall-clock readings are captured on each
// record (RecHeader.StartUnixNano, RecBody.At) for diagnosis but are
// excluded from the comparison, exactly like the Decision telemetry
// fields (path/cone/fallback/elapsed) that PR 7 already excluded from
// journalled state for the same reason.
package wire

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
)

// RecordName is shard i's stream file name under a recording directory,
// shared by the recorder tap and replay.
func RecordName(shard int) string { return fmt.Sprintf("record-shard-%03d.wal", shard) }

// Flight-recorder record kinds (WALRecord.Kind values).
const (
	// RecBegin: stream header — capture config and wall-clock start.
	RecBegin = "rec-begin"
	// RecGrid: a shared-grid registration (raw GridSpec body), recorded
	// on the grid's owning shard.
	RecGrid = "rec-grid"
	// RecSubmission: an accepted submission (raw Submission body) at
	// the moment the worker began executing it.
	RecSubmission = "rec-submission"
	// RecReport: a report batch (raw Report body) at the moment the
	// worker applied it — including batches the tracker rejected, which
	// replay re-rejects identically.
	RecReport = "rec-report"
	// RecDecision: one rescheduling evaluation's semantic outcome.
	RecDecision = "rec-decision"
	// RecPlan: a plan generation published to the enactor.
	RecPlan = "rec-plan"
	// RecDone: a workflow reached a terminal state.
	RecDone = "rec-done"
	// RecEnd: stream trailer — present only when the daemon drained
	// cleanly; its absence is the diagnostic for a truncated capture.
	RecEnd = "rec-end"
)

// RecHeader is the RecBegin payload: what replay needs to rebuild an
// equivalent server.
type RecHeader struct {
	V                 int     `json:"v"`
	Shard             int     `json:"shard"`
	Shards            int     `json:"shards"`
	Policy            string  `json:"policy,omitempty"`
	VarianceThreshold float64 `json:"variance_threshold,omitempty"`
	// StartUnixNano is the wall clock at capture start (diagnostic
	// only; excluded from replay comparison).
	StartUnixNano int64 `json:"start_unix_nano,omitempty"`
}

// RecBody is the shared payload of the three input kinds: the raw wire
// body plus its addressee.
type RecBody struct {
	// Workflow is the daemon-assigned ID (RecSubmission: the ID replay
	// must reuse; RecReport: the target).
	Workflow string `json:"workflow,omitempty"`
	// Grid is the registered grid name (RecGrid only).
	Grid string `json:"grid,omitempty"`
	// At is the wall-clock capture time (diagnostic only).
	At int64 `json:"at,omitempty"`
	// Body is the raw request body, verbatim.
	Body json.RawMessage `json:"body,omitempty"`
}

// RecDecided is the RecDecision payload: the semantic fields of one
// evaluation. Process-local telemetry (the elapsed times) is
// deliberately absent — a replayed run will not reproduce it.
type RecDecided struct {
	Workflow string  `json:"workflow"`
	Clock    float64 `json:"clock"`
	PoolSize int     `json:"pool_size,omitempty"`
	// OldMakespan uses the wire -1 sentinel for +Inf (infeasible old
	// plan after a departure).
	OldMakespan  float64 `json:"old_makespan"`
	NewMakespan  float64 `json:"new_makespan"`
	Adopted      bool    `json:"adopted,omitempty"`
	JobsFinished int     `json:"jobs_finished,omitempty"`
	Trigger      string  `json:"trigger,omitempty"`
	Arrived      int     `json:"arrived,omitempty"`
}

// RecPlanned is the RecPlan payload: one published plan generation,
// with a full-assignment digest so replay divergence in placements is
// caught even at equal makespan.
type RecPlanned struct {
	Workflow   string  `json:"workflow"`
	Generation int     `json:"generation"`
	Trigger    string  `json:"trigger,omitempty"`
	Makespan   float64 `json:"makespan"`
	PlanHash   uint64  `json:"plan_hash,omitempty"`
}

// RecFinished is the RecDone payload.
type RecFinished struct {
	Workflow string  `json:"workflow"`
	Status   string  `json:"status"`
	Makespan float64 `json:"makespan,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// RecTrailer is the RecEnd payload. Clean reports whether the drain
// completed without force-cancelling live runs; a force-cancelled
// capture's tail decisions depend on kill timing and cannot replay
// bit-identically, so replay refuses it with a diagnostic.
type RecTrailer struct {
	Clean       bool  `json:"clean"`
	EndUnixNano int64 `json:"end_unix_nano,omitempty"`
}

// HashPlan digests a plan's assignments (job, resource, start, finish —
// bit-exact on the floats) with FNV-1a. Two plans with equal hash and
// equal assignment count are the same placement for replay purposes.
func HashPlan(as []Assignment) uint64 {
	h := fnv.New64a()
	var b [8 * 4]byte
	for _, a := range as {
		put64(b[0:8], uint64(int64(a.Job)))
		put64(b[8:16], uint64(int64(a.Resource)))
		put64(b[16:24], math.Float64bits(a.Start))
		put64(b[24:32], math.Float64bits(a.Finish))
		h.Write(b[:])
	}
	return h.Sum64()
}

func put64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}
