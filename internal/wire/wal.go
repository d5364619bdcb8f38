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
	"strconv"
	"unicode/utf8"

	"aheft/internal/jsonscan"
)

// WAL record kinds appended by the daemon. The durable layer treats the
// kind as an opaque routing tag; these constants name the server's
// record schema so replay and the record writers agree.
const (
	// WALSubmission: an accepted workflow submission (raw Submission
	// body) waiting to execute.
	WALSubmission = "submission"
	// WALReject: a previously logged submission whose enqueue was
	// refused; replay drops the pending record.
	WALReject = "reject"
	// WALAdmission: the admission decision for an accepted submission —
	// tenant, class and fair-queue weight — journalled beside the raw
	// body so a crash restores queued-but-unplanned submissions into the
	// fair queue with the credentials they were admitted under.
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

// EncodeWALRecord marshals the record at the current envelope version
// after validating it. The argument is not modified.
func EncodeWALRecord(r *WALRecord) ([]byte, error) {
	return AppendWALRecord(nil, r)
}

// AppendWALRecord appends the record's encoding (at the current envelope
// version, after validating it) to dst and returns the extended slice.
// Data is embedded verbatim: the appender either produced it with
// json.Marshal or validated it at ingestion, so the append hot path does
// not re-validate and re-compact every payload the way a reflective
// marshal of a json.RawMessage field would. The caller owns the
// guarantee that Data is a single valid JSON value.
func AppendWALRecord(dst []byte, r *WALRecord) ([]byte, error) {
	stamped := *r
	stamped.V = Version
	if err := stamped.Validate(); err != nil {
		return nil, err
	}
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(Version), 10)
	dst = append(dst, `,"lsn":`...)
	dst = strconv.AppendUint(dst, r.LSN, 10)
	dst = append(dst, `,"kind":`...)
	dst = AppendJSONString(dst, r.Kind)
	if len(r.Data) > 0 {
		dst = append(dst, `,"data":`...)
		dst = append(dst, r.Data...)
	}
	return append(dst, '}'), nil
}

// AppendJSONString appends s as a JSON string literal. The fast path
// covers plain ASCII (the daemon's record kinds, IDs and grid names);
// anything needing escapes takes the stdlib encoder.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			b, err := json.Marshal(s)
			if err != nil { // a string value cannot fail to marshal
				panic(err)
			}
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
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
