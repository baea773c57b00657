package fault

// Injector progress probes: the engines tick the injector every slot and
// never ask how far it got; the tests do.

// Done reports whether every transition has fired.
func (inj *Injector) Done() bool { return inj.next >= len(inj.trans) }

// NextTransition reports the slot of the next unfired transition, or
// Permanent when none remain — the epoch edge degradation metrics cut
// on.
func (inj *Injector) NextTransition() uint64 {
	if inj.Done() {
		return Permanent
	}
	return inj.trans[inj.next].slot
}
