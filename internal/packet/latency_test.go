package packet

import "repro/internal/units"

// Latency reports the end-to-end delay, valid once Delivered is set.
// The engines fold latency from the cell fields directly; the tests use
// this to state expected delays.
func (c *Cell) Latency() units.Time { return c.Delivered - c.Created }
