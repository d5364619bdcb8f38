package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"aheft/internal/wire"
)

// Log is a minimal append-only framed record stream: the same
// length-prefixed CRC-32 frames and wire.WALRecord envelopes as the
// shard WAL, without snapshots, rotation, or fsync policy. It backs the
// flight recorder (internal/server record streams): every append is one
// complete write(2), so a killed process leaves at most one torn frame
// at the tail, and ReadLog applies the WAL's replay contract — stop at
// the first torn, corrupt, or LSN-regressing frame and report it.
type Log struct {
	mu       sync.Mutex
	f        *os.File
	lsn      uint64
	enc      wire.Appender
	frameBuf []byte
	closed   bool
}

// CreateLog creates (truncating) an append-only framed log at path.
func CreateLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: create log: %w", err)
	}
	return &Log{f: f}, nil
}

// Append frames and writes one record, assigning the next LSN. The
// payload is embedded verbatim (the caller guarantees one valid JSON
// value), matching the shard WAL's append contract.
func (l *Log) Append(kind string, payload json.RawMessage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: log is closed")
	}
	var data wire.Doc
	if len(payload) > 0 {
		data = wire.RawDoc(payload)
	}
	doc, err := encodeRecord(&l.enc, l.lsn+1, kind, data)
	if err != nil {
		return err
	}
	l.frameBuf = appendFrame(l.frameBuf[:0], doc)
	if _, err := l.f.Write(l.frameBuf); err != nil {
		return fmt.Errorf("durable: log append: %w", err)
	}
	l.lsn++
	return nil
}

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadLog replays a framed log: the decodable, LSN-increasing record
// prefix, plus whether a torn/corrupt tail was dropped. It never panics
// on any input.
func ReadLog(path string) (records []*wire.WALRecord, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("durable: read log: %w", err)
	}
	payloads, _, torn := replayFrames(data)
	var last uint64
	for _, p := range payloads {
		r, derr := wire.DecodeWALRecord(p)
		if derr != nil || r.LSN <= last {
			return records, true, nil
		}
		last = r.LSN
		records = append(records, r)
	}
	return records, torn, nil
}
