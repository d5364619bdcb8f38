package kernel

import (
	"sync"

	"aheft/internal/dag"
	"aheft/internal/grid"
)

// DrainStatePool empties the pool of released States, so the next
// NewState builds its arrays afresh.
func DrainStatePool() { states = sync.Pool{New: states.New} }

// TransferAt returns the recorded availability of the (m → j) file on r.
func (st *State) TransferAt(m, j dag.JobID, r grid.ID) (float64, bool) {
	e := st.k.edgeIndex(m, j)
	if e < 0 {
		return 0, false
	}
	return st.transfer(e, r)
}
