package link

// Test-side probes: the tests compare the control channel's view with
// the adapters' ground truth and watch the retransmission window.

// AdapterCount reports ground truth for an output.
func (cc *ControlChannel) AdapterCount(out int) int { return cc.adapterCounts[out] }

// InFlight reports unacknowledged frames.
func (l *ReliableLink) InFlight() int { return int(l.next - l.base) }
