package main

import (
	"time"

	"repro/internal/sched"
)

// schedTrace times one switch's arbiter from outside: it wraps the
// scheduler Config.NewScheduler returns, timing TickInto and counting
// granted edges and idle slots skipped. Each switch has its own
// schedTrace and a switch is ticked by one shard goroutine only, so the
// counters need no synchronization; they are read after Session.Advance
// returns, which orders them after the shard barrier.
type schedTrace struct {
	sched.Scheduler
	tickNs  int64
	ticks   uint64
	matched uint64
	skipped uint64
}

func (t *schedTrace) TickInto(slot uint64, b sched.Board, m *sched.Matching) {
	start := time.Now()
	t.Scheduler.TickInto(slot, b, m)
	t.tickNs += int64(time.Since(start))
	t.ticks++
	for _, out := range m.Out {
		if out >= 0 {
			t.matched++
		}
	}
}

// skipHook forwards sched.IdleSkipper, counting the slots skipped.
type skipHook struct {
	t     *schedTrace
	inner sched.IdleSkipper
}

func (h skipHook) SkipIdle(n uint64) {
	h.t.skipped += n
	h.inner.SkipIdle(n)
}

// wrapScheduler returns a traced scheduler that implements
// sched.IdleSkipper and sched.StateCodec exactly when s does. The fabric
// type-asserts IdleSkipper to decide whether a switch may sleep, so a
// wrapper that hid it (or invented it) would change the run.
func wrapScheduler(s sched.Scheduler) (sched.Scheduler, *schedTrace) {
	t := &schedTrace{Scheduler: s}
	skipper, canSkip := s.(sched.IdleSkipper)
	codec, canSave := s.(sched.StateCodec)
	switch {
	case canSkip && canSave:
		return struct {
			*schedTrace
			skipHook
			sched.StateCodec
		}{t, skipHook{t, skipper}, codec}, t
	case canSkip:
		return struct {
			*schedTrace
			skipHook
		}{t, skipHook{t, skipper}}, t
	case canSave:
		return struct {
			*schedTrace
			sched.StateCodec
		}{t, codec}, t
	}
	return t, t
}

// tracedFactory wraps a scheduler factory; traces[k] belongs to the k-th
// switch built, which is fabric node k (fabric.New builds nodes in order
// and shards own contiguous node ranges).
type tracedFactory struct {
	inner  func() sched.Scheduler
	traces []*schedTrace
}

func (f *tracedFactory) build() sched.Scheduler {
	s, t := wrapScheduler(f.inner())
	f.traces = append(f.traces, t)
	return s
}

// schedTotals sums the per-switch counters.
type schedTotals struct {
	tickNs                  int64
	ticks, matched, skipped uint64
}

func (f *tracedFactory) totals() schedTotals {
	var s schedTotals
	for _, t := range f.traces {
		s.tickNs += t.tickNs
		s.ticks += t.ticks
		s.matched += t.matched
		s.skipped += t.skipped
	}
	return s
}

// tickNsByShard sums TickInto time per shard for a fabric of the given
// shard count, using fabric's contiguous node partition.
func (f *tracedFactory) tickNsByShard(shards int) []int64 {
	n := len(f.traces)
	out := make([]int64, shards)
	for i := 0; i < shards; i++ {
		for k := i * n / shards; k < (i+1)*n/shards; k++ {
			out[i] += f.traces[k].tickNs
		}
	}
	return out
}
