// Write-ahead-log record envelope: the versioned JSON document framed
// into aheftd's per-shard durability log (internal/durable). The
// envelope carries only what replay needs to order and route a record —
// the log sequence number, the record kind, and the opaque payload the
// server packages — so the durable layer can frame, checksum, and replay
// records without knowing their meaning, and the payload schemas can
// evolve behind the envelope version exactly like the other wire
// documents.
package wire

import (
	"encoding/json"
	"fmt"

	"aheft/internal/jsonscan"
)

// WAL record kinds appended by the daemon. The durable layer treats the
// kind as an opaque routing tag; these constants name the server's
// record schema so replay and the record writers agree.
const (
	// WALSubmission: an accepted workflow submission (raw Submission
	// body) waiting to execute.
	WALSubmission = "submission"
	// WALReject: in logs written before a submission was journalled only
	// once queued, a logged submission whose enqueue was refused; replay
	// drops the pending record. Read, no longer written.
	WALReject = "reject"
	// WALAdmission: in logs written before the fair-queue credentials
	// were rebuilt from the submission body, the tenant, class and weight
	// journalled beside it. Read and ignored, no longer written.
	WALAdmission = "admission"
	// WALGrid: a registered shared grid (raw GridSpec body).
	WALGrid = "grid"
	// WALState: a live workflow's post-apply feedback state, as one link
	// of that workflow's chain of state records. The link numbered rev
	// holds either the whole tracker state and event log (the first
	// record of a chain) or a patch against what link rev-1 left, with
	// the events appended since; replay folds the chain in LSN order and
	// fails the workflow on a missing or unusable link rather than serve
	// an older state as current.
	WALState = "state"
	// WALTerminal: a workflow reached done/failed; payload is its frozen
	// status document and event log.
	WALTerminal = "terminal"
)

// WALRecord is the envelope of one write-ahead-log entry.
type WALRecord struct {
	// V is the envelope version (see Version).
	V int `json:"v"`
	// LSN is the record's log sequence number: strictly increasing per
	// shard log, assigned by the appender. Snapshots name the LSN they
	// cover; replay skips records at or below it.
	LSN uint64 `json:"lsn"`
	// Kind is one of the WAL* constants (opaque to the durable layer).
	Kind string `json:"kind"`
	// Data is the kind-specific payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// Validate checks envelope validity: version range, a positive LSN, and
// a non-empty kind. Payload validity is the consumer's business.
func (r *WALRecord) Validate() error {
	if r.V < 0 || r.V > Version {
		return fmt.Errorf("wire: unsupported WAL record version %d (max %d)", r.V, Version)
	}
	if r.LSN == 0 {
		return fmt.Errorf("wire: WAL record has zero LSN")
	}
	if r.Kind == "" {
		return fmt.Errorf("wire: WAL record has empty kind")
	}
	return nil
}

// AppendWALRecord appends to e the envelope of record lsn of the given
// kind, at the current version and after validating it: data, when not
// nil, written by its own encoder as the envelope's Data. A raw payload
// (RawDoc) is embedded verbatim: the caller owns the guarantee that it is
// a single valid JSON value, so the append path does not re-validate and
// re-compact it the way a reflective marshal of a json.RawMessage would.
func AppendWALRecord(e *Appender, lsn uint64, kind string, data Doc) error {
	r := WALRecord{V: Version, LSN: lsn, Kind: kind}
	if err := r.Validate(); err != nil {
		return err
	}
	e.Raw(`{"v":`).Int(Version).Raw(`,"lsn":`).Uint(lsn).Raw(`,"kind":`).Str(kind)
	if data != nil {
		data.AppendJSON(e.Raw(`,"data":`))
	}
	e.Raw(`}`)
	return nil
}

// DecodeWALRecord decodes — in one pass, with json.Unmarshal's semantics
// (FuzzDecodeWALRecordParity) — and validates one WAL record envelope. Data
// is a view of data, not a copy: it lives as long as the buffer it was cut
// from, so a consumer that keeps a payload past its log's replay copies it.
// It never panics on any input.
func DecodeWALRecord(data []byte) (*WALRecord, error) {
	var r WALRecord
	sc := jsonscan.New(data)
	sc.Object("v", &r.V, "lsn", &r.LSN, "kind", &r.Kind, "data", func() { r.Data = sc.Raw() })
	if err := sc.End(); err != nil {
		return nil, fmt.Errorf("wire: decode WAL record: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
