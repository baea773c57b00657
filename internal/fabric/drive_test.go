package fabric

import (
	"fmt"
	"io"

	"repro/internal/ckpt"
	"repro/internal/fc"
	"repro/internal/packet"
	"repro/internal/traffic"
	"repro/internal/units"
)

// Hand-driving and standalone-checkpoint helpers. The program drives a
// fabric only through Run and Session and embeds session snapshots in
// its own framing; the tests use these as the oracle those paths must
// match (serialRun injects cell by cell) and to round-trip a session
// through one self-contained file.

// Slot reports the current cycle.
func (f *Fabric) Slot() uint64 { return f.slot }

// StartMeasurement begins the measurement window.
func (f *Fabric) StartMeasurement() { f.measuring = true }

// Inject places a newly arrived cell into its source leaf's ingress
// adapter (the first-stage input buffer).
func (f *Fabric) Inject(c *packet.Cell) error {
	if c.Src < 0 || c.Src >= f.cfg.Hosts {
		return fmt.Errorf("fabric: source %d out of range", c.Src)
	}
	ni := f.hostNode[c.Src]
	c.Injected = units.Time(f.slot) * f.metrics.CycleTime
	if f.measuring {
		f.injectOffered++
	}
	if err := f.nodes[ni].push(c, f.hostPort[c.Src]); err != nil {
		return err
	}
	f.shards[f.nodeShard[ni]].wake(ni)
	return nil
}

// Save writes a complete osmosis-ckpt v2 snapshot of the session — the
// fabric state plus every traffic generator and the session timeline —
// to w. Only legal at a barrier, which is wherever Advance pauses.
func (s *Session) Save(w io.Writer) error {
	e := ckpt.NewEncoder(w)
	s.SaveState(e)
	return e.Close()
}

// ResumeSession restores a Save snapshot onto a freshly built fabric of
// the same configuration (any shard count) and freshly built generators
// of the same traffic configuration, returning a session that continues
// the saved run bit-exactly.
func ResumeSession(f *Fabric, gens []traffic.Generator, r io.Reader) (*Session, error) {
	d, err := ckpt.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	s, err := ResumeSessionState(f, gens, d)
	if err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return s, nil
}

// creditsHeld counts a counter's usable credits by spending them on a
// copy, leaving the fabric's counter untouched.
func creditsHeld(c *fc.Credits) int {
	cp := *c
	n := 0
	for cp.Consume() {
		n++
	}
	return n
}
