package kernel

import "aheft/internal/grid"

// Busy is one foreign occupied interval on a resource: time claimed by a
// job the kernel's own graph knows nothing about (another workflow on a
// shared grid).
type Busy struct {
	Start, Finish float64
}

// Occupancy supplies the foreign reservations the slot search must plan
// around. AppendBusy appends resource r's foreign intervals to buf and
// returns the extended slice; implementations must not retain buf. The
// intervals may overlap each other (drifting pins from different owners)
// — the kernel's timelines coalesce whatever is added to them.
//
// The provider is consulted once per resource per placement pass
// (prepHistory), never inside the per-job inner loop, so a mutex-guarded
// implementation does not serialise the hot path.
type Occupancy interface {
	AppendBusy(r grid.ID, buf []Busy) []Busy
}

// SetOccupancy attaches (or, with nil, detaches) a foreign-reservation
// provider. Every subsequent placement pass — Static, Reschedule, and the
// policies built on them — treats the provider's intervals as busy time
// in the slot search, while the schedule it returns still covers only the
// kernel's own jobs and the makespan counts only their finishes.
func (k *Kernel) SetOccupancy(o Occupancy) { k.occ = o }

// injectForeign appends the provider's busy intervals for every resource
// of rs into the base rows. Called from prepHistory after the own
// history rows are filled, before the per-row sort; the shared busyBuf
// scratch keeps the steady state allocation-free.
func (k *Kernel) injectForeign(rs []grid.Resource) {
	if k.occ == nil {
		return
	}
	for _, r := range rs {
		k.busyBuf = k.occ.AppendBusy(r.ID, k.busyBuf[:0])
		for _, b := range k.busyBuf {
			if b.Finish <= b.Start {
				continue // empty or inverted claim blocks nothing
			}
			k.baseTL[r.ID] = append(k.baseTL[r.ID], block{b.Start, b.Finish})
		}
	}
}
