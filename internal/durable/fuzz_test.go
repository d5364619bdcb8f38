package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aheft/internal/wire"
)

// FuzzWALReplay pins the crash-safety contract down for arbitrary bytes:
// replay never panics, only whole correctly-checksummed frames are
// yielded (re-framing the replayed payloads reproduces the valid prefix
// byte for byte — nothing is ever half-applied), a dropped tail is
// always reported as torn, a Decoder is handed exactly the records Load
// collects, and Open's repair always leaves a log that replays clean and
// accepts further appends.
func FuzzWALReplay(f *testing.F) {
	var valid []byte
	for i := 1; i <= 3; i++ {
		doc := []byte(`{"v":1,"lsn":` + string(rune('0'+i)) + `,"kind":"state","data":{"i":` + string(rune('0'+i)) + `}}`)
		valid = appendFrame(valid, doc)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                    // torn tail
	f.Add(append(append([]byte{}, valid...), 7))   // trailing garbage
	f.Add([]byte("not a frame at all"))            // pure garbage
	f.Add(appendFrame(nil, []byte("not json")))    // framed non-record
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0}) // absurd length field

	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, validLen, torn := replayFrames(data)
		if validLen > len(data) {
			t.Fatalf("validLen %d > input %d", validLen, len(data))
		}
		if torn != (validLen != len(data)) {
			t.Fatalf("torn=%v with validLen=%d of %d", torn, validLen, len(data))
		}
		var re []byte
		for _, p := range payloads {
			re = appendFrame(re, p)
		}
		if !bytes.Equal(re, data[:validLen]) {
			t.Fatalf("re-framed prefix differs from input prefix")
		}

		// Full pipeline: the bytes as an on-disk segment must never panic
		// Load, and Open must repair to a log that replays clean.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Load(dir)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		for i := 1; i < len(rec.Records); i++ {
			if rec.Records[i].LSN <= rec.Records[i-1].LSN {
				t.Fatalf("replayed LSNs not strictly increasing")
			}
		}
		// A Decoder is handed the same records, and replay ends where it
		// ends without one.
		var p probe
		decoded, err := Load(dir, &p)
		if err != nil || decoded.TornTail != rec.TornTail || decoded.MaxLSN != rec.MaxLSN || len(p.folded) != len(rec.Records) {
			t.Fatalf("with a decoder: %d records to it, torn %v, max LSN %d (err %v); without: %d records, torn %v, max LSN %d",
				len(p.folded), decoded.TornTail, decoded.MaxLSN, err, len(rec.Records), rec.TornTail, rec.MaxLSN)
		}
		s, _, err := Open(dir, SyncOff, 0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		_, _ = s.Append("state", wire.RawDoc("1")) // may fail near LSN overflow; must not panic
		s.Close()
		clean, err := Load(dir)
		if err != nil {
			t.Fatalf("post-repair load: %v", err)
		}
		if clean.TornTail {
			t.Fatalf("log still torn after repair")
		}
	})
}
