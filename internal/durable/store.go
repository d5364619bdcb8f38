package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aheft/internal/wire"
)

// SyncPolicy selects when appended frames are fsynced (see the package
// comment: this is machine-crash durability; process kills are covered
// by the completed write(2) alone).
type SyncPolicy int

const (
	// SyncInterval fsyncs dirty logs on a background timer (the default).
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append.
	SyncAlways
	// SyncOff never fsyncs explicitly; the kernel flushes on its own
	// schedule.
	SyncOff
)

// ParseSyncPolicy maps the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown sync policy %q (want always, interval or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "interval"
	}
}

// DefaultSyncInterval is the SyncInterval flush period when none is
// configured.
const DefaultSyncInterval = 100 * time.Millisecond

// Recovered is what Load/Open found on disk: the newest snapshot (nil
// if none) and every decodable WAL record appended after it, in LSN
// order.
type Recovered struct {
	// SnapshotLSN is the last LSN the snapshot covers (0 = no snapshot).
	SnapshotLSN uint64
	// Snapshot is the raw snapshot document, nil when none exists.
	Snapshot []byte
	// Records holds the replayed records with LSN > SnapshotLSN.
	Records []*wire.WALRecord
	// TornTail reports that replay stopped at a torn/corrupt frame and
	// dropped the rest of the log.
	TornTail bool
	// MaxLSN is the highest LSN accounted for (snapshot or record).
	MaxLSN uint64
	// Bytes is how much was read to get here: the snapshot plus every
	// segment's valid frames.
	Bytes int64

	// segs lists the directory's segments by first LSN. With TornTail set,
	// replay stopped in segs[tornSeg] after tornLen bytes of whole, usable
	// frames: where repair cuts.
	segs    []uint64
	tornSeg int
	tornLen int64
}

// Shard is one append-only store directory — a shard's journal or its
// flight-recorder stream: a single active WAL segment plus the snapshot
// that bounds it. Append/Rotate are serialised by an internal mutex; the
// server also orders journal appends against its shard state.
type Shard struct {
	dir      string
	policy   SyncPolicy
	interval time.Duration

	mu       sync.Mutex
	f        *os.File
	segStart uint64 // first LSN the active segment may hold
	lsn      uint64 // last assigned LSN
	disabled bool
	dirty    bool
	enc      wire.Appender // reusable envelope encoder (under mu)
	frameBuf []byte        // reusable frame scratch (under mu)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	appends   atomic.Uint64
	bytes     atomic.Uint64
	snapshots atomic.Uint64
}

func segName(first uint64) string { return fmt.Sprintf("wal-%020d.log", first) }
func snapName(lsn uint64) string  { return fmt.Sprintf("snap-%020d.json", lsn) }

// parseSeq extracts the sequence number from a "prefix-<seq>.suffix"
// name, or ok=false.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listDir returns the shard dir's snapshot LSNs and segment first-LSNs,
// each sorted ascending.
func listDir(dir string) (snaps, segs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, e := range entries {
		if n, ok := parseSeq(e.Name(), "snap-", ".json"); ok {
			snaps = append(snaps, n)
		} else if n, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs, nil
}

// Load reads a shard directory without opening it for appends: the
// newest snapshot plus the ordered valid record suffix: recovery of
// orphaned shard directories, replay's reading of a recording, and the
// benchmarks. A missing directory is an empty (not an error) result.
func Load(dir string) (*Recovered, error) {
	rec := &Recovered{}
	snaps, segs, err := listDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list %s: %w", dir, err)
	}
	if len(snaps) > 0 {
		rec.SnapshotLSN = snaps[len(snaps)-1]
		data, err := os.ReadFile(filepath.Join(dir, snapName(rec.SnapshotLSN)))
		if err != nil {
			return nil, fmt.Errorf("durable: read snapshot: %w", err)
		}
		rec.Snapshot = data
		rec.MaxLSN = rec.SnapshotLSN
		rec.Bytes = int64(len(data))
	}
	rec.segs = segs
	for i, first := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segName(first)))
		if err != nil {
			return nil, fmt.Errorf("durable: read segment: %w", err)
		}
		payloads, valid, torn := replayFrames(data)
		rec.Bytes += int64(valid)
		rec.tornSeg, rec.tornLen = i, 0
		for _, p := range payloads {
			r, err := wire.DecodeWALRecord(p)
			if err != nil || r.LSN <= rec.MaxLSN {
				// An undecodable or out-of-order record is corruption as
				// surely as a bad CRC: stop replay here, keep the prefix.
				rec.TornTail = true
				return rec, nil
			}
			rec.MaxLSN = r.LSN
			rec.Records = append(rec.Records, r)
			rec.tornLen += int64(frameHeader + len(p))
		}
		if torn {
			// A torn tail can only be the crash point; nothing after it
			// (in this or any later segment) can be a completed append.
			rec.TornTail = true
			return rec, nil
		}
	}
	return rec, nil
}

// Open recovers a shard directory (creating it if missing) and opens it
// for appends: torn tails are truncated away so the log stays replayable,
// and the active segment continues where the valid prefix ended.
func Open(dir string, policy SyncPolicy, interval time.Duration) (*Shard, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	rec, err := Load(dir)
	if err != nil {
		return nil, nil, err
	}
	if err := repair(dir, rec); err != nil {
		return nil, nil, err
	}
	segStart := rec.MaxLSN + 1
	if len(rec.segs) > 0 {
		segStart = rec.segs[len(rec.segs)-1]
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(segStart)), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open segment: %w", err)
	}
	if interval <= 0 {
		interval = DefaultSyncInterval
	}
	s := &Shard{
		dir:      dir,
		policy:   policy,
		interval: interval,
		f:        f,
		segStart: segStart,
		lsn:      rec.MaxLSN,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if policy == SyncInterval {
		go s.syncLoop()
	} else {
		close(s.done)
	}
	return s, rec, nil
}

// repair truncates the replayed-valid prefix back onto disk: the segment
// holding the torn tail is cut where Load stopped and any segments after
// it are removed, so the next replay — and appends continuing in the
// meantime — see a clean log.
func repair(dir string, rec *Recovered) error {
	if !rec.TornTail {
		return nil
	}
	if err := os.Truncate(filepath.Join(dir, segName(rec.segs[rec.tornSeg])), rec.tornLen); err != nil {
		return fmt.Errorf("durable: truncate torn tail: %w", err)
	}
	for _, later := range rec.segs[rec.tornSeg+1:] {
		if err := os.Remove(filepath.Join(dir, segName(later))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("durable: drop post-corruption segment: %w", err)
		}
	}
	rec.segs = rec.segs[:rec.tornSeg+1]
	return nil
}

// Append encodes one record into the envelope that carries it, assigns
// it the next LSN, and writes its frame in one write(2): a kill leaves it
// whole or a torn tail that replay drops. It never fsyncs unless the
// policy is SyncAlways. A disabled store reports (0, nil): the crash test
// hook turned writes off.
func (s *Shard) Append(kind string, data wire.Doc) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled {
		return 0, nil
	}
	doc, err := encodeRecord(&s.enc, s.lsn+1, kind, data)
	if err != nil {
		return 0, fmt.Errorf("durable: encode %s record: %w", kind, err)
	}
	s.frameBuf = appendFrame(s.frameBuf[:0], doc)
	if _, err := s.f.Write(s.frameBuf); err != nil {
		return 0, fmt.Errorf("durable: append: %w", err)
	}
	s.lsn++
	s.appends.Add(1)
	s.bytes.Add(uint64(len(s.frameBuf)))
	if s.policy == SyncAlways {
		if err := s.f.Sync(); err != nil {
			return 0, fmt.Errorf("durable: sync: %w", err)
		}
	} else {
		s.dirty = true
	}
	return s.lsn, nil
}

// encodeRecord encodes one envelope through e, reusing the buffer e
// wrote the last one into.
func encodeRecord(e *wire.Appender, lsn uint64, kind string, data wire.Doc) ([]byte, error) {
	buf, _ := e.Done()
	*e = wire.NewAppender(buf[:0])
	if err := wire.AppendWALRecord(e, lsn, kind, data); err != nil {
		return nil, err
	}
	return e.Done()
}

// Rotate installs snapshot as the new recovery base covering every LSN
// appended so far, then truncates the log: the snapshot is written to a
// temp file and renamed (atomic on POSIX), old segments and snapshots
// are removed, and a fresh active segment starts after it. The caller
// must ensure snapshot actually covers all its appended records — in
// aheftd both run under the shard's WAL mutex.
func (s *Shard) Rotate(snapshot []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled {
		return nil
	}
	tmp := filepath.Join(s.dir, "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if _, err := f.Write(snapshot); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName(s.lsn))); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if s.policy != SyncOff {
		// The rename survives a power loss only once the directory entry
		// does; until then the sweep below could leave neither file.
		d, err := os.Open(s.dir)
		if err == nil {
			err = d.Sync()
			d.Close()
		}
		if err != nil {
			return fmt.Errorf("durable: snapshot: sync dir: %w", err)
		}
	}
	s.snapshots.Add(1)

	// The snapshot is durable; everything at or below s.lsn is covered.
	// Swap in a fresh segment, then sweep the stale files.
	old := s.f
	next, err := os.OpenFile(filepath.Join(s.dir, segName(s.lsn+1)), os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: rotate segment: %w", err)
	}
	s.f = next
	s.segStart = s.lsn + 1
	s.dirty = false
	old.Close()

	snaps, segs, err := listDir(s.dir)
	if err != nil {
		return nil // sweep is best-effort; stale files only cost disk
	}
	for _, n := range snaps {
		if n < s.lsn {
			os.Remove(filepath.Join(s.dir, snapName(n)))
		}
	}
	for _, n := range segs {
		if n < s.segStart {
			os.Remove(filepath.Join(s.dir, segName(n)))
		}
	}
	return nil
}

// Disable turns the store off without flushing: subsequent Appends and
// Rotates are silent no-ops and the file is closed as-is, so the disk
// state is exactly what a SIGKILL at this instant would leave. Test
// hook for crash-recovery coverage.
func (s *Shard) Disable() {
	s.mu.Lock()
	if !s.disabled {
		s.disabled = true
		s.f.Close()
	}
	s.mu.Unlock()
	s.stopSync()
}

// Close flushes and closes the store. Idempotent.
func (s *Shard) Close() error {
	s.stopSync()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled {
		return nil
	}
	s.disabled = true
	var err error
	if s.policy != SyncOff {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Counters returns the monotonic append/byte/snapshot counts for
// /metrics.
func (s *Shard) Counters() (appends, bytes, snapshots uint64) {
	return s.appends.Load(), s.bytes.Load(), s.snapshots.Load()
}

func (s *Shard) stopSync() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// syncLoop is the SyncInterval flusher.
func (s *Shard) syncLoop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if s.dirty && !s.disabled {
				s.f.Sync()
				s.dirty = false
			}
			s.mu.Unlock()
		case <-s.stop:
			return
		}
	}
}
