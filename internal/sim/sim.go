// Package sim is a deterministic discrete-event simulation kernel.
//
// It replaces the Omnet++ environment the OSMOSIS authors used for their
// delay-versus-throughput studies. The kernel is intentionally small: a
// binary-heap future-event list keyed by (time, sequence) so that events
// scheduled at the same timestamp fire in schedule order, which makes
// every run bit-reproducible for a given seed.
package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/units"
)

// Event is a callback scheduled to fire at a simulated time.
type Event func(now units.Time)

// scheduled is an entry in the future-event list.
type scheduled struct {
	at    units.Time
	seq   uint64 // tie-breaker: schedule order
	fn    Event
	index int // heap index, maintained by the heap.Interface methods
	dead  bool
}

// eventHeap orders events by (time, seq).
type eventHeap []*scheduled

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	s := x.(*scheduled)
	s.index = len(*h)
	*h = append(*h, s)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.index = -1
	*h = old[:n-1]
	return s
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct{ s *scheduled }

// Kernel is a discrete-event simulator instance.
//
// The zero value is not usable; create kernels with New.
type Kernel struct {
	now  units.Time
	seq  uint64
	heap eventHeap
}

// New returns an empty kernel at time zero.
func New() *Kernel {
	return &Kernel{}
}

// Now reports the current simulated time.
func (k *Kernel) Now() units.Time { return k.now }

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering time
// would corrupt every downstream statistic.
func (k *Kernel) At(at units.Time, fn Event) Handle {
	if at < k.now {
		//lint:ignore panicfree causality invariant: scheduling into the past is a model bug and reordering time would corrupt every statistic
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	s := &scheduled{at: at, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.heap, s)
	return Handle{s}
}

// After schedules fn to run delay after the current time.
func (k *Kernel) After(delay units.Time, fn Event) Handle {
	if delay < 0 {
		//lint:ignore panicfree causality invariant: a negative delay schedules into the past
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.At(k.now+delay, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (k *Kernel) Cancel(h Handle) {
	if h.s == nil || h.s.dead || h.s.index < 0 {
		return
	}
	h.s.dead = true
}

// Run executes events until the future-event list drains or the horizon
// is passed. It returns the time of the last event fired. A horizon of
// units.Infinity runs to exhaustion.
func (k *Kernel) Run(horizon units.Time) units.Time {
	for len(k.heap) > 0 {
		s := k.heap[0]
		if s.dead {
			heap.Pop(&k.heap)
			continue
		}
		if s.at > horizon {
			// Leave the event queued; the caller may extend the horizon.
			k.now = horizon
			return k.now
		}
		heap.Pop(&k.heap)
		k.now = s.at
		s.fn(k.now)
	}
	return k.now
}
