package fabric

import (
	"fmt"

	"repro/internal/bitrow"
	"repro/internal/fc"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/voq"
)

// node is one switch in the fabric: per-input VOQ sets over the switch's
// outputs, a central scheduler, per-output credits toward the next
// stage's input buffer, and (for buffer-placement option 1) per-output
// egress queues.
//
// A node is the unit of spatial partitioning: all of its mutable state
// is reachable only through the node itself, so any disjoint grouping of
// nodes can tick concurrently (the //osmosis:shardsafe annotations on
// the step path make the linter prove it).
type node struct {
	id    NodeID
	net   Net
	radix int
	ports []PortInfo
	// peerIdx[p] is the fabric node index of ports[p].Peer for
	// inter-switch ports, -1 otherwise; resolved once at construction so
	// the per-slot launch and credit paths index a slice instead of
	// hashing a NodeID map key.
	peerIdx []int
	sch     sched.Scheduler
	// receivers per output (dual-receiver crossbar).
	receivers int

	// bank queues cells by input and *output port* of this switch, and
	// maintains the demand columns, depth maximum and resident count.
	bank *voq.Bank
	// inputOccupancy[in] tracks total buffered cells for bounded
	// inter-switch input ports (capacity enforced by upstream credits).
	inputCapacity int

	// credits[out] guards the downstream input buffer of inter-switch
	// links; nil for host outputs (host egress is paced separately) and
	// unused ports. Credit returns ride the fabric's credit wire for the
	// full reverse flight and arrive via Land, so the counters carry no
	// internal return pipeline of their own.
	credits []*fc.Credits

	// egress[out] is the option-1 output buffer; nil in option 3.
	egress []*voq.Egress

	// arbitration scratch, reused every slot so the steady-state tick
	// path performs zero heap allocations (pinned by alloc tests).
	match     sched.Matching
	launchBuf []launch
	nLaunch   int
	freedBuf  []int

	// stats
	fcBlocked   uint64
	maxVOQDepth int

	// sendMask has bit out set iff the output may currently be granted
	// (port in use, and — option 3 only — downstream credit available),
	// updated only on CanSend transitions; the board ANDs it onto the
	// bank's demand rows. Derived state: checkpoints never carry it,
	// LoadState rebuilds.
	sendMask []uint64

	// Active-set bookkeeping. egressCells counts cells in the option-1
	// egress queues; with the bank's resident count it tells whether the
	// node holds any cell, and the owning shard stops arbitrating the
	// node while it holds none and its scheduler can be fast-forwarded.
	// schedSlot is the next slot the scheduler will observe; the gap to
	// the current slot is the deferred idle stretch SkipIdle replays.
	egressCells int
	skipper     sched.IdleSkipper
	schedSlot   uint64
}

// newNode builds a switch node.
func newNode(id NodeID, net Net, mk func() sched.Scheduler, receivers, inputCapacity int, egressBuffered bool) (*node, error) {
	ports, err := net.PortMap(id)
	if err != nil {
		return nil, err
	}
	n := &node{
		id:            id,
		net:           net,
		radix:         net.SwitchRadix(),
		ports:         ports,
		sch:           mk(),
		receivers:     receivers,
		inputCapacity: inputCapacity,
	}
	k := n.radix
	n.bank = voq.NewBank(k)
	n.credits = make([]*fc.Credits, k)
	for out, pi := range ports {
		if pi.Kind == UpPort || pi.Kind == DownPort {
			// rttSlots 1 because the return flight is modeled on the
			// fabric's credit wire, not inside the counter (see Land).
			c, err := fc.NewCredits(inputCapacity, 1)
			if err != nil {
				return nil, err
			}
			n.credits[out] = c
		}
	}
	if egressBuffered {
		n.egress = make([]*voq.Egress, k)
		for out := range n.egress {
			n.egress[out] = voq.NewEgress(receivers, 0)
		}
	}
	n.match = sched.NewMatching(k)
	n.launchBuf = make([]launch, k)
	n.freedBuf = make([]int, k)
	n.sendMask = make([]uint64, bitrow.Words(k))
	n.resetSendMask()
	n.skipper, _ = n.sch.(sched.IdleSkipper)
	return n, nil
}

// resetSendMask re-derives the grantable-output mask from scratch: ports
// in use, minus (option 3) outputs whose credit counter cannot send.
// Steady-state maintenance is incremental (consume/land transitions);
// this full rebuild runs at construction and checkpoint restore only.
func (n *node) resetSendMask() {
	bitrow.ZeroAll(n.sendMask)
	for out, pi := range n.ports {
		if pi.Kind == Unused {
			continue
		}
		if n.egress == nil {
			if c := n.credits[out]; c != nil && !c.CanSend() {
				continue
			}
		}
		bitrow.Set(n.sendMask, out)
	}
}

// landCredit lands one returning credit on an output's counter and, on
// the empty→usable transition, restores the output's grantable bit
// (option 3; option-1 masks are credit-independent and stay set).
//
//osmosis:shardsafe
func (n *node) landCredit(port int) {
	if n.credits[port].LandRefilled() && n.egress == nil {
		bitrow.Set(n.sendMask, port)
	}
}

// board adapts node state for the scheduler, masking outputs that lack
// flow-control credit — the §IV.B "scheduler as FC manager" role.
type nodeBoard struct{ n *node }

func (b nodeBoard) N() int              { return b.n.radix }
func (b nodeBoard) Receivers() int      { return b.n.receivers }
func (b nodeBoard) ReceiversAt(int) int { return b.n.receivers }

func (b nodeBoard) Demand(in, out int) int {
	n := b.n
	if n.ports[out].Kind == Unused {
		return 0
	}
	// Option 3 FC: no grants toward an output whose downstream ingress
	// buffer is out of credits. (Option 1 buffers locally instead.)
	if n.egress == nil {
		if c := n.credits[out]; c != nil && !c.CanSend() {
			return 0
		}
	}
	return n.bank.Demand(in, out)
}

// Commit and Uncommit forward to the bank, which keeps its demand
// columns in sync.
//
//osmosis:hotpath
//osmosis:shardsafe
func (b nodeBoard) Commit(in, out int) { b.n.bank.Commit(in, out) }

//osmosis:hotpath
//osmosis:shardsafe
func (b nodeBoard) Uncommit(in, out int) { b.n.bank.Uncommit(in, out) }

// DemandRowBits implements sched.Board: input in's uncommitted
// occupancy row ANDed against the grantable-output mask — exactly the
// outputs for which Demand(in, out) > 0, in ceil(radix/64) word ops.
//
//osmosis:hotpath
//osmosis:shardsafe
func (b nodeBoard) DemandRowBits(in int, row []uint64) {
	n := b.n
	occ := n.bank.Row(in)
	for w := range row {
		row[w] = occ[w] & n.sendMask[w]
	}
}

// DemandColBits implements sched.Board: the bank's demand column for
// out when the output is grantable, all-zero otherwise.
//
//osmosis:hotpath
//osmosis:shardsafe
func (b nodeBoard) DemandColBits(out int, col []uint64) {
	n := b.n
	if !bitrow.Has(n.sendMask, out) {
		for w := range col {
			col[w] = 0
		}
		return
	}
	n.bank.DemandColBits(out, col)
}

// push enqueues a cell arriving on input port in; the output port is
// computed from the routing function.
//
//osmosis:shardsafe
func (n *node) push(c *packet.Cell, in int) error {
	out, err := n.net.Route(n.id, c.Src, c.Dst)
	if err != nil {
		return err
	}
	n.bank.Push(in, c, out)
	return nil
}

// launch describes one cell leaving the switch this slot.
type launch struct {
	cell *packet.Cell
	out  int
}

// arbitrate runs the scheduler and pops the granted cells, respecting
// credits; it returns the launches and releases upstream credits for
// freed input-buffer slots via the returned per-input counts. Both
// returned slices are node-owned scratch, valid until the next
// arbitrate call — callers must consume them immediately.
//
//osmosis:hotpath
//osmosis:shardsafe
func (n *node) arbitrate(slot uint64) (launches []launch, freed []int) {
	n.nLaunch = 0
	// Option 1: egress queues transmit first, so a cell entering the
	// output buffer waits at least one slot — the store-and-forward
	// cost of the extra buffering stage.
	if n.egress != nil {
		for out, e := range n.egress {
			if e.Queued() == 0 {
				continue
			}
			if c := n.credits[out]; c != nil && !c.Consume() {
				n.fcBlocked++
				continue
			}
			n.launchBuf[n.nLaunch] = launch{cell: e.Drain(), out: out}
			n.nLaunch++
			n.egressCells--
		}
	}
	// Replay any slots skipped while the node was out of the active set:
	// the scheduler must observe every slot exactly once, so its pipeline
	// phase stays identical to the always-ticked kernel's.
	if n.skipper != nil && slot > n.schedSlot {
		n.skipper.SkipIdle(slot - n.schedSlot)
	}
	n.schedSlot = slot + 1
	n.sch.TickInto(slot, nodeBoard{n}, &n.match)
	freed = n.freedBuf
	for i := range freed {
		freed[i] = 0
	}
	for in, out := range n.match.Out {
		if out < 0 {
			continue
		}
		// Option 3: re-check credit at execution (pipelined grants can
		// race a credit drain); blocked cells simply stay queued.
		if n.egress == nil {
			if c := n.credits[out]; c != nil {
				ok, emptied := c.ConsumeEmptied()
				if !ok {
					n.fcBlocked++
					n.bank.Uncommit(in, out)
					continue
				}
				if emptied {
					bitrow.Clear(n.sendMask, out)
				}
			}
		}
		c := n.bank.Pop(in, out)
		if c == nil {
			// Scheduler promised a cell that is not there — a bug.
			//lint:ignore panicfree,hotpath scheduler/VOQ bookkeeping invariant: a grant without a cell is a scheduler bug, not a runtime condition; the Sprintf only runs on that dead path
			panic(fmt.Sprintf("fabric: %v granted empty VOQ in=%d out=%d slot=%d", n.id, in, out, slot))
		}
		c.Hops++
		freed[in]++
		if n.egress != nil {
			n.egress[out].Receive(c)
			n.egressCells++
		} else {
			n.launchBuf[n.nLaunch] = launch{cell: c, out: out}
			n.nLaunch++
		}
	}
	// Depth tracking: the bank's maintained maximum equals the max a
	// per-VOQ scan would sample at this exact point, so the MaxVOQDepth
	// metric (part of the fingerprint) is bit-identical.
	if d := n.bank.MaxDepth(); d > n.maxVOQDepth {
		n.maxVOQDepth = d
	}
	return n.launchBuf[:n.nLaunch], freed
}

// idle reports whether the node holds no cells — O(1) from the
// maintained counters (the scan they replace is retained in
// shard_test.go as slowIdle and pinned equal by regression test).
func (n *node) idle() bool { return n.bank.Resident() == 0 && n.egressCells == 0 }

// rebuildDerived recomputes the node's derived structures — egress cell
// count, grantable mask, scheduler slot cursor — from restored
// credit/egress state (the bank rebuilt its own on load). Checkpoints
// never serialize derived bits; LoadState calls this instead.
func (n *node) rebuildDerived(slot uint64) {
	n.egressCells = 0
	for _, e := range n.egress {
		n.egressCells += e.Queued()
	}
	n.resetSendMask()
	n.schedSlot = slot
}

// normalizeSched applies any deferred idle skips so the scheduler state
// a checkpoint serializes is canonical — byte-identical to the
// always-ticked twin's at the barrier slot. Skips are additive (skip to
// slot now plus skip onward later equals one combined skip), so
// normalizing mid-run never changes where the run ends up.
func (n *node) normalizeSched(slot uint64) {
	if slot > n.schedSlot {
		if n.skipper != nil {
			n.skipper.SkipIdle(slot - n.schedSlot)
		}
		n.schedSlot = slot
	}
}
