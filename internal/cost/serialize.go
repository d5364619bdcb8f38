package cost

import (
	"encoding/json"
	"fmt"

	"aheft/internal/jsonscan"
)

// MarshalJSON encodes the table as its bare jobs × resources matrix —
// row i is job i, column j is resource j, matching the dense IDs the dag
// and grid codecs assign on decode.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.comp)
}

// UnmarshalJSON decodes a matrix written by MarshalJSON. The result is
// validated as by NewTable (rectangular, positive, finite); on error the
// receiver is left untouched.
func (t *Table) UnmarshalJSON(data []byte) error {
	s := jsonscan.New(data)
	nt, err := DecodeTable(s)
	if err != nil {
		return err
	}
	if err := s.End(); err != nil {
		return fmt.Errorf("cost: decode: %w", err)
	}
	*t = *nt
	return nil
}

// rowsPerChunk is how many rows DecodeTable allocates backing for at a
// time.
const rowsPerChunk = 64

// DecodeTable reads one matrix document from s — the one decoder of the
// format, standalone or embedded in a submission — into rows cut from
// shared backing arrays, which the table then owns. A null anywhere in the
// matrix is rejected: json.Unmarshal reads it as a zero cost or an empty
// row, and NewTable accepts neither.
func DecodeTable(s *jsonscan.Scanner) (*Table, error) {
	var rows [][]float64
	// chunk backs the rows being read, so nothing is copied as the matrix
	// grows. The first row's width sizes it, but that is the client's word:
	// a float takes two bytes of input, so the input left caps it, and a row
	// that input cannot fill ends the decode. (A row wider than the first
	// outgrows its chunk and append moves it; checkMatrix rejects it.)
	var chunk []float64
	s.Elems(func() {
		if len(rows) > 0 && cap(chunk)-len(chunk) < len(rows[0]) {
			width, most := len(rows[0]), s.Rest()/2
			if most < width {
				s.Fail(fmt.Errorf("cost: ragged matrix: row %d has fewer than %d entries", len(rows), width))
				return
			}
			chunk = make([]float64, 0, min(width*rowsPerChunk, most))
		}
		from := len(chunk)
		s.Elems(func() { chunk = append(chunk, s.Float()) })
		rows = append(rows, chunk[from:len(chunk):len(chunk)])
	})
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("cost: decode: %w", err)
	}
	if err := checkMatrix(rows); err != nil {
		return nil, fmt.Errorf("cost: decode: %w", err)
	}
	return &Table{comp: rows}, nil
}
