package sched

// Container (burst/envelope) switching, §II and §VI.D: the classic
// workaround that relaxes central-scheduler timing by aggregating many
// cells into one container per (input, output) pair and arbitrating at
// container granularity — the scheduler then has a whole container time
// (B cell slots) per decision instead of one cell slot. The price the
// paper calls out: even an unloaded switch exhibits latency on the
// order of the container time, which disqualifies the approach for HPC.
//
// The model is epoch-synchronous: an epoch is B cell slots. Cells
// accumulate in per-(input,output) assembly buffers; an assembly seals
// into a container when it fills (B cells) or when its oldest cell ages
// past the assembly Timeout. Sealed containers join per-VOQ queues; a
// round-robin matching (one container per input, one per output) is
// computed once per epoch; granted containers transmit during the
// following epoch, one cell slot per cell.
//
// The Timeout defaults to N*B slots — the fill time of a container
// under uniform traffic — because a shorter timeout seals mostly-empty
// containers and collapses throughput. That is precisely the paper's
// criticism: high utilization forces container-scale (huge) latencies
// even on an unloaded switch.

import "repro/internal/packet"

// ContainerSwitch is an N-port container-switched crossbar.
type ContainerSwitch struct {
	n, b int
	// Timeout is the maximum age (in cell slots) of an assembly's
	// oldest cell before the partial container seals anyway.
	Timeout uint64
	// assembling[in][out] is the open container filling this epoch.
	assembling [][][]containerCell
	// queued[in][out] holds sealed containers awaiting a grant.
	queued [][][]container
	// acceptPtr is the round-robin matching state over containers.
	acceptPtr []int
	// transmitting[in] is the container on the wire this epoch (nil if idle).
	transmitting []*container

	slot uint64
	// Sink receives each delivered cell with its latency in cell slots.
	Sink func(c *packet.Cell, latencySlots uint64)
}

type containerCell struct {
	c       *packet.Cell
	arrived uint64
}

type container struct {
	cells []containerCell
}

// NewContainerSwitch builds an n-port switch with containers of b cells.
func NewContainerSwitch(n, b int) *ContainerSwitch {
	if b < 1 {
		b = 1
	}
	cs := &ContainerSwitch{n: n, b: b, Timeout: uint64(n * b)}
	cs.assembling = make([][][]containerCell, n)
	cs.queued = make([][][]container, n)
	for i := 0; i < n; i++ {
		cs.assembling[i] = make([][]containerCell, n)
		cs.queued[i] = make([][]container, n)
	}
	cs.acceptPtr = make([]int, n)
	cs.transmitting = make([]*container, n)
	return cs
}

// Step advances one cell slot. arrivals[i] is the cell arriving at
// input i (nil for none).
func (cs *ContainerSwitch) Step(arrivals []*packet.Cell) {
	// 1. Transmitting containers deliver one cell per slot.
	phase := int(cs.slot % uint64(cs.b))
	for in := 0; in < cs.n; in++ {
		tc := cs.transmitting[in]
		if tc == nil || phase >= len(tc.cells) {
			continue
		}
		cc := tc.cells[phase]
		if cs.Sink != nil {
			cs.Sink(cc.c, cs.slot-cc.arrived+1)
		}
	}
	// 2. Arrivals accumulate; a full assembly seals immediately.
	for in, c := range arrivals {
		if c == nil {
			continue
		}
		cs.assembling[in][c.Dst] = append(cs.assembling[in][c.Dst],
			containerCell{c: c, arrived: cs.slot})
		if len(cs.assembling[in][c.Dst]) >= cs.b {
			cs.seal(in, c.Dst)
		}
	}
	// 3. At the epoch boundary: seal stale assemblies, arbitrate, launch.
	if phase == cs.b-1 {
		cs.epochBoundary()
	}
	cs.slot++
}

// seal moves an assembly into the container queue.
func (cs *ContainerSwitch) seal(in, out int) {
	cs.queued[in][out] = append(cs.queued[in][out],
		container{cells: cs.assembling[in][out]})
	cs.assembling[in][out] = nil
}

// epochBoundary seals timed-out assemblies, matches containers, and
// starts the next epoch's transmissions.
func (cs *ContainerSwitch) epochBoundary() {
	for in := 0; in < cs.n; in++ {
		cs.transmitting[in] = nil
		for out := 0; out < cs.n; out++ {
			asm := cs.assembling[in][out]
			if len(asm) == 0 {
				continue
			}
			if cs.slot-asm[0].arrived >= cs.Timeout {
				cs.seal(in, out)
			}
		}
	}
	// One round-robin matching pass per epoch (the relaxed scheduler).
	outTaken := make([]bool, cs.n)
	for k := 0; k < cs.n; k++ {
		in := (int(cs.slot/uint64(cs.b)) + k) % cs.n // rotate input priority
		start := cs.acceptPtr[in]
		for j := 0; j < cs.n; j++ {
			out := (start + j) % cs.n
			if outTaken[out] || len(cs.queued[in][out]) == 0 {
				continue
			}
			ctr := cs.queued[in][out][0]
			cs.queued[in][out] = cs.queued[in][out][1:]
			cs.transmitting[in] = &ctr
			outTaken[out] = true
			cs.acceptPtr[in] = (out + 1) % cs.n
			break
		}
	}
}
