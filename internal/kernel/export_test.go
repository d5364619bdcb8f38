package kernel

import "sync"

// DrainStatePool empties the pool of released States, so the next
// NewState builds its arrays afresh.
func DrainStatePool() { states = sync.Pool{New: states.New} }
