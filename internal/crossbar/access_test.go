package crossbar

// Test-side accessors for hand-driven Step loops: the program reads a
// switch's results only through Run, RunEpochs and CutEpoch.

// ReceiverLoad reports how many cells receiver rx at the given egress
// has taken since the switch was built (execution-time assignment, so
// the dual-receiver tie-break is directly observable).
func (s *Switch) ReceiverLoad(egress, rx int) uint64 {
	return s.rxLoad[egress*s.cfg.Receivers+rx]
}

// Slot reports the current cycle number.
func (s *Switch) Slot() uint64 { return s.slot }

// Metrics exposes the collected measurements.
func (s *Switch) Metrics() *Metrics { return &s.metrics }

// Drained reports whether all queues are empty.
func (s *Switch) Drained() bool {
	if s.bank.Resident() > 0 {
		return false
	}
	for _, e := range s.egress {
		if e.Queued() > 0 {
			return false
		}
	}
	return true
}
