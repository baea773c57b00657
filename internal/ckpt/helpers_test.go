package ckpt

// Latched-error probe the tests read mid-stream; encoder callers learn
// of a latched error from Close.

// Err reports the latched error, if any, without closing.
func (e *Encoder) Err() error { return e.err }
