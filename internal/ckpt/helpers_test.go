package ckpt

// Latched-error probes the tests read mid-stream; callers learn of a
// latched error from Close, Done and the section calls.

// Err reports the latched error, if any, without closing.
func (e *Encoder) Err() error { return e.err }

// Err reports the latched error, if any.
func (d *Decoder) Err() error { return d.err }
