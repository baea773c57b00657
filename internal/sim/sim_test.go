package sim

import (
	"testing"

	"repro/internal/units"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(30*units.Nanosecond, func(units.Time) { order = append(order, 3) })
	k.At(10*units.Nanosecond, func(units.Time) { order = append(order, 1) })
	k.At(20*units.Nanosecond, func(units.Time) { order = append(order, 2) })
	k.Run(units.Infinity)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired in order %v", order)
	}
	if k.Now() != 30*units.Nanosecond {
		t.Errorf("final time %v", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5*units.Nanosecond, func(units.Time) { order = append(order, i) })
	}
	k.Run(units.Infinity)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events reordered: pos %d got %d", i, v)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	k := New()
	k.At(10*units.Nanosecond, func(units.Time) {})
	k.Run(units.Infinity)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	k.At(5*units.Nanosecond, func(units.Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	k.After(-1, func(units.Time) {})
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	h := k.At(10*units.Nanosecond, func(units.Time) { fired = true })
	k.Cancel(h)
	k.Cancel(h) // double cancel is a no-op
	k.Run(units.Infinity)
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestHorizon(t *testing.T) {
	k := New()
	fired := 0
	k.At(10*units.Nanosecond, func(units.Time) { fired++ })
	k.At(30*units.Nanosecond, func(units.Time) { fired++ })
	k.Run(20 * units.Nanosecond)
	if fired != 1 {
		t.Errorf("fired %d before horizon, want 1", fired)
	}
	if k.Now() != 20*units.Nanosecond {
		t.Errorf("now %v, want horizon", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("pending %d, want 1", k.Pending())
	}
	k.Run(units.Infinity)
	if fired != 2 {
		t.Errorf("fired %d after full run", fired)
	}
}

func TestTicker(t *testing.T) {
	k := New()
	var ticks []units.Time
	k.Ticker(0, 10*units.Nanosecond, func(now units.Time) bool {
		ticks = append(ticks, now)
		return len(ticks) < 5
	})
	k.Run(units.Infinity)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks", len(ticks))
	}
	for i, tk := range ticks {
		if tk != units.Time(i)*10*units.Nanosecond {
			t.Errorf("tick %d at %v", i, tk)
		}
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Error("zero period should panic")
		}
	}()
	k.Ticker(0, 0, func(units.Time) bool { return false })
}

func TestEventsCanSchedule(t *testing.T) {
	k := New()
	depth := 0
	var recurse Event
	recurse = func(now units.Time) {
		depth++
		if depth < 10 {
			k.After(units.Nanosecond, recurse)
		}
	}
	k.At(0, recurse)
	k.Run(units.Infinity)
	if depth != 10 {
		t.Errorf("recursive scheduling depth %d", depth)
	}
}
