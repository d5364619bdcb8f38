// Package durable is aheftd's one append-only store: a framed,
// CRC-checked log of wire.WALRecord envelopes in a directory (Shard,
// read back by Load), plus atomic point-in-time snapshots that truncate
// it. Both of the daemon's logs are Shards: each shard's write-ahead
// journal, which snapshots, and each shard's flight-recorder stream,
// which never does. The layer is deliberately dumb about record meaning
// — it frames, checksums, orders by LSN, and replays; what a
// "submission" or "state" record does to a shard is the server's
// business — so its crash-safety contract can be stated and fuzzed in
// isolation:
//
//   - every append is one write(2) of a complete frame, so a SIGKILL
//     between appends loses nothing and a kill mid-write leaves at most
//     one torn frame at the log's tail;
//   - replay stops at the first torn, truncated, or corrupt frame and
//     drops everything from there on — a partial record is never
//     half-applied (FuzzWALReplay pins this down for arbitrary bytes);
//   - snapshots are written to a temp file and renamed into place, so a
//     crash mid-snapshot leaves the previous snapshot + log intact.
//
// fsync policy is orthogonal to the torn-frame contract: an unsynced
// completed write(2) survives process death (the page cache outlives the
// process); fsync only buys machine-crash durability. SyncAlways pays
// one fsync per append, SyncInterval batches them on a timer, SyncOff
// leaves flushing to the kernel.
package durable

import (
	"encoding/binary"
	"hash/crc32"
)

// frameHeader is the per-frame overhead: 4-byte big-endian payload
// length followed by the payload's CRC-32 (IEEE).
const frameHeader = 8

// maxFramePayload rejects absurd lengths (a torn length field read as
// gigabytes) before they are trusted.
const maxFramePayload = 1 << 30

// appendFrame appends one framed payload to dst and returns the
// extended slice.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// replayFrames splits data into its framed payloads, stopping at the
// first torn, truncated, or corrupt frame. It returns the payloads, the
// byte length of the valid prefix, and whether a tail was dropped. The
// payloads alias data. It never panics on any input.
func replayFrames(data []byte) (payloads [][]byte, validLen int, torn bool) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return payloads, off, false
		}
		if len(rest) < frameHeader {
			return payloads, off, true
		}
		n := int(binary.BigEndian.Uint32(rest[0:4]))
		if n > maxFramePayload || len(rest)-frameHeader < n {
			return payloads, off, true
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:8]) {
			return payloads, off, true
		}
		payloads = append(payloads, payload)
		off += frameHeader + n
	}
}
