package core

import (
	"repro/internal/packet"
	"repro/internal/units"
)

// Latency models of §III/§IV: the Fig.-1 argument that a single-stage
// centrally scheduled fabric pays two machine-room round trips, versus
// the multistage store-and-forward alternative whose per-stage penalty
// is tiny at small cell sizes.

// SingleStageLatencyBreakdown decomposes the Fig.-1 latency.
type SingleStageLatencyBreakdown struct {
	// RTT is one machine-room round trip (host to central switch and
	// back, 2 x half-RTT).
	RTT units.Time
	// RequestGrant is the control round trip (1 RTT) plus scheduling.
	RequestGrant units.Time
	// DataFlight is the data transfer (1 more RTT: host to switch to
	// destination host).
	DataFlight units.Time
	// Total is the minimum unloaded latency.
	Total units.Time
}

// SingleStageCentralLatency computes the minimum latency of a
// single-stage bufferless crossbar with a central scheduler in a
// machine room of the given diameter: "one RTT is required to perform
// the request/grant cycle, one more RTT to transmit the data packet".
func SingleStageCentralLatency(diameterMeters float64, scheduling, cellTime units.Time) SingleStageLatencyBreakdown {
	rtt := units.RoundTrip(diameterMeters / 2) // hosts average half the diameter from the center
	b := SingleStageLatencyBreakdown{
		RTT:          rtt,
		RequestGrant: rtt + scheduling,
		DataFlight:   rtt + cellTime,
	}
	b.Total = b.RequestGrant + b.DataFlight
	return b
}

// MultistageLatency computes the unloaded latency of an s-stage
// store-and-forward fabric: each stage contributes its switch delay plus
// a cell store, and the cables contribute one end-to-end time of flight
// (cells stream through; no control round trip across the room).
func MultistageLatency(stages int, perStageDelay, cellTime units.Time, diameterMeters float64) units.Time {
	if stages < 1 {
		stages = 1
	}
	flight := units.FiberDelay(diameterMeters)
	return units.Time(stages)*(perStageDelay+cellTime) + flight
}

// StoreAndForwardPenalty reports the per-stage buffering cost of a
// packet: its own transmission time (§IV: 5.33 ns for 64 B at
// 12 GByte/s), negligible against the 250 ns cable budget.
func StoreAndForwardPenalty(packetBytes int, rate units.Bandwidth) units.Time {
	return units.TransmissionTime(packetBytes, rate)
}

// FabricLatencyBudget is the paper's 500 ns end-to-end fabric budget
// (§III), split half to switches and half to cables (250 ns covers a
// 50 m room at 5 ns/m).
const FabricLatencyBudget = 500 * units.Nanosecond

// ASICTargetFormat is the commercialization target the requirements
// address (§VII): IB 12x QDR rates (12 GByte/s), shorter guard time from
// DPSK-saturated SOAs and ASIC burst-mode receivers.
func ASICTargetFormat() packet.Format {
	return packet.Format{
		CellBytes:   256,
		HeaderBytes: 8,
		GuardTime:   2 * units.Nanosecond,
		LineRate:    units.IB12xQDRPortRate,
		FECOverhead: 16.0 / 256.0,
	}
}
