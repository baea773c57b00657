package sched

// Test-side accessors: the program never reads these totals, the tests
// use them to drain a switch and to size matchings.

// Size reports the number of matched inputs.
func (m Matching) Size() int {
	s := 0
	for _, o := range m.Out {
		if o >= 0 {
			s++
		}
	}
	return s
}

// Buffered reports the total cells held in the intermediate stage.
func (b *BvN) Buffered() int {
	total := 0
	for j := range b.mid {
		for d := range b.mid[j] {
			total += len(b.mid[j][d].cells)
		}
	}
	return total
}

// QueuedContainers reports containers awaiting grants.
func (cs *ContainerSwitch) QueuedContainers() int {
	total := 0
	for in := range cs.queued {
		for out := range cs.queued[in] {
			total += len(cs.queued[in][out])
		}
	}
	return total
}

// Assembling reports cells still filling open containers.
func (cs *ContainerSwitch) Assembling() int {
	total := 0
	for in := range cs.assembling {
		for out := range cs.assembling[in] {
			total += len(cs.assembling[in][out])
		}
	}
	return total
}

// Recirculating reports cells currently in the loop.
func (d *Deflect) Recirculating() int {
	total := 0
	for _, batch := range d.loop {
		total += len(batch)
	}
	return total
}
