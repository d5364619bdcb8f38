// Package sim is a small deterministic discrete-event simulation kernel:
// the substrate this reproduction uses in place of the SimJava framework
// the paper ran its dynamic Min-Min baseline on.
//
// The kernel provides exactly what the paper's experiments require — an
// event queue with a logical clock ("the variable clock is used as logical
// clock to measure the time span of DAG execution") — with one addition the
// paper implies but does not state: total determinism. Events are ordered
// by (time, priority, sequence number), so simultaneous events fire in a
// well-defined order and every run of an experiment with the same seed
// produces bit-identical results.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Priority orders events that share a timestamp: lower fires first. The
// dispatch simulation uses this to pin down simultaneous-event semantics:
// a job that completes at time t is visible to a resource-arrival event
// at t, which in turn is visible to any dispatch decision at t.
type Priority int

// The priorities of the dispatch simulation. Callers may use any ints.
const (
	PriJobFinish      Priority = 0  // job completions first
	PriResourceChange Priority = 20 // then pool changes
	PriDispatch       Priority = 30 // then dispatch decisions
)

type event struct {
	time float64
	prio Priority
	seq  uint64
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Simulator is a discrete-event loop. The zero value is ready to use; Now
// starts at 0.
type Simulator struct {
	pq  eventHeap
	now float64
	seq uint64
}

// New returns a Simulator with its clock at 0.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() float64 { return s.now }

// At schedules fn to run at absolute time t with the given priority. It
// panics if t is in the past or not a finite number: scheduling into the
// past is always a logic bug worth failing loudly on.
func (s *Simulator) At(t float64, prio Priority, fn func()) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: event scheduled at non-finite time %g", t))
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: t=%g < now=%g", t, s.now))
	}
	s.seq++
	heap.Push(&s.pq, &event{time: t, prio: prio, seq: s.seq, fn: fn})
}

// Run executes events in order until the queue drains. The clock is left
// at the time of the last executed event.
func (s *Simulator) Run() {
	for len(s.pq) > 0 {
		e := heap.Pop(&s.pq).(*event)
		s.now = e.time
		e.fn()
	}
}
