// Package des is a deterministic discrete-event simulation core used by
// the circuit-level clock simulations (internal/wiresim), the clocked and
// self-timed array runners, and the hybrid synchronization network. Events
// scheduled for the same time fire in scheduling order, so simulations are
// reproducible.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	pq  eventHeap
	now float64
	seq int64
}

type event struct {
	time float64
	seq  int64 // tie-break: FIFO among equal-time events
	fn   func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn to run at absolute time t. Scheduling into the past
// (before Now) panics: it indicates a causality bug in the caller.
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %g before now %g", t, s.now))
	}
	if math.IsNaN(t) {
		panic("des: scheduling at NaN")
	}
	heap.Push(&s.pq, event{time: t, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn to run delay time units from now; delay must be
// non-negative.
func (s *Sim) After(delay float64, fn func()) {
	s.At(s.now+delay, fn)
}

// Step executes the earliest pending event and returns true, or returns
// false if no events remain.
func (s *Sim) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	e := heap.Pop(&s.pq).(event)
	s.now = e.time
	e.fn()
	return true
}

// Run executes events until the queue drains, returning the final time.
// maxEvents bounds the number of events executed (guarding against
// runaway self-scheduling loops); it panics if the bound is hit.
func (s *Sim) Run(maxEvents int64) float64 {
	for i := int64(0); ; i++ {
		if i >= maxEvents {
			panic(fmt.Sprintf("des: event budget %d exhausted at t=%g", maxEvents, s.now))
		}
		if !s.Step() {
			return s.now
		}
	}
}
