package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aheft/internal/jsonscan"
	"aheft/internal/wire"
)

func appendMust(t *testing.T, s *Shard, kind string, payload any) uint64 {
	t.Helper()
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := s.Append(kind, wire.RawDoc(data))
	if err != nil {
		t.Fatalf("append %s: %v", kind, err)
	}
	return lsn
}

func TestAppendLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, SyncOff, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(rec.Records) != 0 || rec.Snapshot != nil {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	for i := 1; i <= 5; i++ {
		if lsn := appendMust(t, s, "state", map[string]int{"i": i}); lsn != uint64(i) {
			t.Fatalf("append %d assigned LSN %d", i, lsn)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.TornTail {
		t.Fatalf("clean log reported torn")
	}
	if len(got.Records) != 5 || got.MaxLSN != 5 {
		t.Fatalf("got %d records, max LSN %d; want 5, 5", len(got.Records), got.MaxLSN)
	}
	for i, r := range got.Records {
		if r.LSN != uint64(i+1) || r.Kind != "state" {
			t.Fatalf("record %d: %+v", i, r)
		}
		var p map[string]int
		if err := json.Unmarshal(r.Data, &p); err != nil || p["i"] != i+1 {
			t.Fatalf("record %d payload %s (err %v)", i, r.Data, err)
		}
	}
	a, b, sn := s.Counters()
	if a != 5 || b == 0 || sn != 0 {
		t.Fatalf("counters appends=%d bytes=%d snapshots=%d", a, b, sn)
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, SyncInterval, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendMust(t, s, "submission", "a")
	appendMust(t, s, "submission", "b")
	s.Close()

	s2, rec, err := Open(dir, SyncInterval, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("reopen recovered %d records, want 2", len(rec.Records))
	}
	if lsn := appendMust(t, s2, "submission", "c"); lsn != 3 {
		t.Fatalf("post-reopen append got LSN %d, want 3", lsn)
	}
	s2.Close()
	got, err := Load(dir)
	if err != nil || len(got.Records) != 3 || got.TornTail {
		t.Fatalf("final load: %d records, torn=%v, err=%v", len(got.Records), got.TornTail, err)
	}
}

func TestRotateTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, SyncOff, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 4; i++ {
		appendMust(t, s, "state", i)
	}
	snapshot := []byte(`{"shard":"doc"}`)
	if err := s.Rotate(snapshot); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	appendMust(t, s, "state", 99)
	s.Close()

	got, err := Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !bytes.Equal(got.Snapshot, snapshot) || got.SnapshotLSN != 4 {
		t.Fatalf("snapshot %q at LSN %d; want %q at 4", got.Snapshot, got.SnapshotLSN, snapshot)
	}
	if len(got.Records) != 1 || got.Records[0].LSN != 5 {
		t.Fatalf("post-snapshot records: %+v", got.Records)
	}
	// The pre-snapshot segment must be gone: disk stays bounded.
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir holds %v; want exactly one snapshot + one segment", names)
	}
	_, _, snaps := s.Counters()
	if snaps != 1 {
		t.Fatalf("snapshot counter %d, want 1", snaps)
	}
}

// TestWriteFileReplacesAtomically installs a file under every policy,
// then replaces it: each time the directory holds the new bytes under the
// name, and no temp file is left behind, whether the write succeeds or
// fails.
func TestWriteFileReplacesAtomically(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		dir := t.TempDir()
		for _, data := range []string{`{"v":1,"shards":4}`, `{"v":1}`} {
			if err := WriteFile(dir, "layout.json", []byte(data), policy); err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "layout.json"))
			if err != nil || string(got) != data {
				t.Fatalf("%s: read back %q, %v; want %q", policy, got, err, data)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("%s: dir holds %d entries, want the file alone", policy, len(entries))
			}
		}
		// A name the rename cannot take: the write fails and leaves
		// nothing behind.
		if err := os.Mkdir(filepath.Join(dir, "taken"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "taken", "x"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(dir, "taken", []byte("x"), policy); err == nil {
			t.Fatalf("%s: replaced a non-empty directory", policy)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 2 {
			t.Fatalf("%s: a failed write left %d entries, want layout.json and taken", policy, len(entries))
		}
	}
}

func TestTornTailDetectedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, SyncOff, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		appendMust(t, s, "state", i)
	}
	s.Close()

	// Simulate a kill mid-write: garbage after the last whole frame.
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	got, err := Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !got.TornTail || len(got.Records) != 3 {
		t.Fatalf("torn=%v records=%d; want torn with the 3-record prefix", got.TornTail, len(got.Records))
	}

	// Open repairs: the tail is truncated and appends continue cleanly.
	s2, rec, err := Open(dir, SyncOff, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("repair recovered %d records, want 3", len(rec.Records))
	}
	if lsn := appendMust(t, s2, "state", 4); lsn != 4 {
		t.Fatalf("post-repair LSN %d, want 4", lsn)
	}
	s2.Close()
	clean, err := Load(dir)
	if err != nil || clean.TornTail || len(clean.Records) != 4 {
		t.Fatalf("post-repair load: torn=%v records=%d err=%v", clean.TornTail, len(clean.Records), err)
	}
}

// TestTruncationNeverHalfApplies cuts a multi-record log at every byte
// offset: replay must yield exactly the whole-frame prefix — a record is
// either fully present or fully absent.
func TestTruncationNeverHalfApplies(t *testing.T) {
	var full []byte
	var ends []int // byte offset at which record i ends
	for i := 1; i <= 4; i++ {
		doc, err := json.Marshal(map[string]any{"v": 1, "lsn": i, "kind": "state"})
		if err != nil {
			t.Fatal(err)
		}
		full = appendFrame(full, doc)
		ends = append(ends, len(full))
	}
	for cut := 0; cut <= len(full); cut++ {
		payloads, validLen, torn := replayFrames(full[:cut])
		wantRecords := 0
		for _, e := range ends {
			if e <= cut {
				wantRecords++
			}
		}
		if len(payloads) != wantRecords {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(payloads), wantRecords)
		}
		if wantRecords > 0 && validLen != ends[wantRecords-1] {
			t.Fatalf("cut %d: validLen %d, want %d", cut, validLen, ends[wantRecords-1])
		}
		wholePrefix := validLen == cut
		if torn == wholePrefix {
			t.Fatalf("cut %d: torn=%v with validLen=%d of %d", cut, torn, validLen, cut)
		}
	}
}

func TestDisableLeavesDiskUntouched(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, SyncOff, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendMust(t, s, "state", 1)
	appendMust(t, s, "state", 2)
	before, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	s.Disable()
	if lsn, err := s.Append("state", wire.RawDoc("3")); lsn != 0 || err != nil {
		t.Fatalf("disabled append returned (%d, %v)", lsn, err)
	}
	if err := s.Rotate([]byte("{}")); err != nil {
		t.Fatalf("disabled rotate: %v", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("disable mutated the log")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after disable: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "off": SyncOff,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("String() round trip: %q -> %q", in, got.String())
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatalf("bogus policy accepted")
	}
}

// probe is a Decoder that notes what it is handed: the snapshot, and for
// each record its LSN, whether Payload read it, and the payload's "i" or
// that it did not decode.
type probe struct {
	snapshot string
	next     int
	folded   []probed
}

type probed struct {
	lsn     uint64
	i       int
	bad     bool
	decoded bool
}

func (p *probe) Snapshot(data []byte) error {
	if len(p.folded) > 0 {
		return errors.New("snapshot after records")
	}
	p.snapshot = string(data)
	return nil
}

func (p *probe) Payload(kind string, sc *jsonscan.Scanner) {
	p.next = 0
	sc.Object("i", &p.next)
}

func (p *probe) Record(r *wire.WALRecord, decoded bool) {
	got := probed{lsn: r.LSN, i: p.next, decoded: decoded}
	if !decoded {
		sc := jsonscan.New(r.Data)
		got.i = 0
		sc.Object("i", &got.i)
		got.bad = sc.End() != nil
	}
	p.folded = append(p.folded, got)
}

// TestDecoderReplaysAsLoadDoes reads one log with and without a Decoder.
// A payload of valid JSON in the wrong shape reaches the decoder's error
// path and replay goes on; a CRC-valid frame whose envelope is good but
// whose payload is not JSON ends replay, with or without a Decoder, at
// the same record, and Open repairs it there.
func TestDecoderReplaysAsLoadDoes(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, SyncOff, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendMust(t, s, "state", map[string]int{"i": 1})
	if err := s.Rotate([]byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	var frames []byte
	for _, doc := range []string{
		`{"v":1,"lsn":2,"kind":"state","data":{"i":2}}`,
		`{"v":1,"lsn":3,"kind":"state","data":{"i":"three"}}`,
		`{"v":1,"lsn":4,"data":{"i":4},"kind":"state"}`,
		`{"v":1,"lsn":5,"kind":"state","data":not json}`,
		`{"v":1,"lsn":6,"kind":"state","data":{"i":6}}`,
	} {
		frames = appendFrame(frames, []byte(doc))
	}
	seg := filepath.Join(dir, segName(2))
	if err := os.WriteFile(seg, frames, 0o644); err != nil {
		t.Fatal(err)
	}

	plain, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var p probe
	got, err := Load(dir, &p)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.TornTail || !got.TornTail || got.MaxLSN != plain.MaxLSN || got.MaxLSN != 4 || len(plain.Records) != 3 || len(got.Records) != 0 {
		t.Fatalf("without a decoder: torn %v, max LSN %d, %d records; with: torn %v, max LSN %d, %d records",
			plain.TornTail, plain.MaxLSN, len(plain.Records), got.TornTail, got.MaxLSN, len(got.Records))
	}
	want := []probed{{lsn: 2, i: 2, decoded: true}, {lsn: 3, bad: true}, {lsn: 4, i: 4}}
	if p.snapshot != `{"snap":1}` || !reflect.DeepEqual(p.folded, want) {
		t.Fatalf("decoder saw snapshot %q and %+v, want %+v", p.snapshot, p.folded, want)
	}

	var q probe
	s, _, err = Open(dir, SyncOff, 0, &q)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !reflect.DeepEqual(q.folded, want) {
		t.Fatalf("Open's decoder saw %+v, want %+v", q.folded, want)
	}
	clean, err := Load(dir)
	if err != nil || clean.TornTail || clean.MaxLSN != 4 || len(clean.Records) != 3 {
		t.Fatalf("after repair: %+v, %v", clean, err)
	}
}
