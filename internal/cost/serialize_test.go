package cost

import (
	"bytes"
	"runtime"
	"testing"
)

// allocated returns the bytes f allocates, garbage included.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeMemoryFollowsBody: what a matrix decode allocates is bounded by
// the size of the document, whatever width its first row claims. A float
// costs two bytes of input and eight of memory, and append regrows a row as
// it reads it, so a small multiple of 4× is the natural cost; sizing later
// rows' backing from the first row's width alone made it 64 × width × 8.
func TestDecodeMemoryFollowsBody(t *testing.T) {
	const width = 1 << 20
	wide := append(bytes.Repeat([]byte("1,"), width-1), '1')
	short := bytes.Repeat([]byte(",[1]"), width/2)
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"one short row", []byte(",[1]")},
		{"many short rows", short},
		{"short rows then a full one", append(append([]byte(nil), short[:4*1000]...), append([]byte(",["), append(wide, ']')...)...)},
	} {
		body := append(append(append([]byte("[["), wide...), ']'), append(tc.tail, ']')...)
		var err error
		got := allocated(func() { err = new(Table).UnmarshalJSON(body) })
		if err == nil {
			t.Errorf("%s: ragged matrix accepted", tc.name)
		}
		t.Logf("%s: %d bytes, allocated %.1f×", tc.name, len(body), float64(got)/float64(len(body)))
		if limit := uint64(32 * len(body)); got > limit {
			t.Errorf("%s: decoding %d bytes allocated %d, want ≤ %d", tc.name, len(body), got, limit)
		}
	}
}

// TestDecodeRowsShareBacking: rows of a well-formed matrix are cut from
// shared arrays without moving, and rows past the first chunk are intact.
func TestDecodeRowsShareBacking(t *testing.T) {
	const rows, width = 3*rowsPerChunk + 5, 7
	comp := make([][]float64, rows)
	for i := range comp {
		comp[i] = make([]float64, width)
		for j := range comp[i] {
			comp[i][j] = float64(i*width + j + 1)
		}
	}
	body, err := MustTable(comp).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var tb Table
	if err := tb.UnmarshalJSON(body); err != nil {
		t.Fatal(err)
	}
	for i := range comp {
		for j, want := range comp[i] {
			if got := tb.comp[i][j]; got != want {
				t.Fatalf("w[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
		if cap(tb.comp[i]) != width {
			t.Fatalf("row %d has capacity %d, want %d: a neighbour could be appended over", i, cap(tb.comp[i]), width)
		}
	}
}
