package data

import (
	"aheft/internal/grid"
	"aheft/internal/jsonscan"
)

// DecodeSet reads one file-catalog document (the Set's JSON form) from s
// into set; a field the document omits or gives as null keeps its value.
// Errors are left on s; the result is not validated (see Set.Validate).
func DecodeSet(s *jsonscan.Scanner, set *Set) {
	s.Object("bw", &set.DefaultBW, "files", func() {
		set.Files = jsonscan.Array(s, set.Files, func(f *File) {
			s.Object("id", &f.ID, "size", &f.Size, "hosts", func() {
				f.Hosts = jsonscan.Array(s, f.Hosts, func(h *grid.ID) { *h = grid.ID(s.Int()) })
			})
		})
	})
}
