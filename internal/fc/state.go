// Checkpoint codec for the credit counter. The record keeps the layout
// of the counter's earlier form, which also carried a credit-return ring
// and a lost-credit count: "credits <avail> <shortfalls> 0 1 0" (no
// credits lost, a one-slot ring, no returns in it). The fabric always
// built that shape, so every checkpoint it wrote still restores, and a
// save today is byte-identical to one from before.
package fc

import (
	"fmt"

	"repro/internal/ckpt"
)

// SaveState serializes the counter: availability and shortfalls.
func (c *Credits) SaveState(e *ckpt.Encoder) {
	e.Put("credits", ckpt.Int(int64(c.avail)), ckpt.Uint(c.Shortfalls), ckpt.Uint(0),
		ckpt.Int(1), ckpt.Int(0))
}

// LoadState restores state saved by SaveState into c. A record that
// holds lost credits or in-flight returns describes a return loop this
// counter does not model and is rejected.
func (c *Credits) LoadState(d *ckpt.Decoder) error {
	r := d.Record("credits")
	avail, shortfalls, lost := r.Int(), r.Uint(), r.Uint()
	ring, returns := r.IntAsInt(), r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if lost != 0 || ring != 1 || returns != 0 {
		return fmt.Errorf("fc: checkpoint credit loop (lost %d, ring %d, %d returns in flight) is not a landed-credit counter", lost, ring, returns)
	}
	if avail < 0 {
		return fmt.Errorf("fc: checkpoint with negative avail %d", avail)
	}
	c.avail = int(avail)
	c.Shortfalls = shortfalls
	return nil
}
