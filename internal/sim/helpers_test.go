package sim

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Kernel and RNG extras only the tests use: the models schedule their
// own events with At and After, and draw no exponential variates.

// Pending reports how many events are waiting in the future-event list.
func (k *Kernel) Pending() int {
	n := 0
	for _, s := range k.heap {
		if !s.dead {
			n++
		}
	}
	return n
}

// Ticker invokes fn every period, starting at start, until fn returns
// false: periodic events built on At, as a slotted model would use them.
// The engines step their slots directly.
func (k *Kernel) Ticker(start, period units.Time, fn func(now units.Time) bool) {
	if period <= 0 {
		//lint:ignore panicfree a non-positive period would loop the kernel at one instant forever; a caller bug
		panic(fmt.Sprintf("sim: ticker period %v must be positive", period))
	}
	var tick Event
	tick = func(now units.Time) {
		if fn(now) {
			k.At(now+period, tick)
		}
	}
	k.At(start, tick)
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}
