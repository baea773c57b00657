package fabric

import (
	"fmt"

	"repro/internal/bitrow"
	"repro/internal/packet"
	"repro/internal/parallel"
	"repro/internal/traffic"
	"repro/internal/units"
)

// shard owns a contiguous range of switch nodes and everything needed
// to tick them without touching another shard: the inflight and
// credit-return rings for links whose downstream end lands here, the
// traffic injection for the hosts attached to its leaves, a private
// cell allocator, and the order checker for the flows its hosts
// receive. Events bound for another shard accumulate in
// per-destination mailboxes that only the coordinator drains, at window
// barriers — between barriers no two shards share mutable state, which
// is exactly the property the //osmosis:shardsafe annotations on the
// step path make the linter prove.
type shard struct {
	f   *Fabric
	idx int
	// [nodeLo, nodeHi) in Fabric.nodes; [hostLo, hostHi) in host IDs.
	nodeLo, nodeHi int
	hostLo, hostHi int

	// inflight[slot % ringLen] holds cells landing here that slot;
	// creditWire likewise carries FC returns for the full reverse
	// flight. Ring length 2*LinkDelaySlots+2: at an exchange barrier a
	// mailbox entry can be up to 2*LinkDelaySlots+1 slots ahead of this
	// shard's next slot (emitted at the end of the source's window,
	// landing LinkDelaySlots+1 later).
	inflight   [][]delivery
	creditWire [][]creditReturn

	// outCells[t]/outCreds[t] are the mailboxes toward shard t; entry
	// [idx] stays empty. Drained only by the coordinator's exchange.
	outCells [][]farDelivery
	outCreds [][]farCredit

	// delivered[w] records the cells that completed in window-offset
	// slot w, in host order; the coordinator folds them into the
	// metrics in global (slot, host) order.
	delivered [][]deliveryRecord

	// alloc issues the cells of the hosts this shard owns (Run and
	// Session inject from it; tests driving Inject draw from it too).
	// Every such cell comes back to it at delivery: directly when this
	// shard delivers it, through retired otherwise.
	alloc *packet.Allocator
	// retired[t] holds the cells this shard delivered that shard t's
	// allocator issued; the coordinator hands them over at the barrier.
	// Entry [idx] stays empty.
	retired [][]*packet.Cell
	// order checks the Table-1 delivery order of every flow toward this
	// shard's hosts — the only flows it delivers.
	order *packet.OrderChecker

	// active is the arbitration work set: bit (ni - nodeLo) is set while
	// node ni may need to arbitrate. Every cell push sets the owner's bit
	// (idempotent, O(1)); the tick loop clears a bit only when the node
	// holds zero resident cells AND its scheduler supports idle skipping,
	// so a skipped slot is provably equivalent to an arbitrate that would
	// have matched nothing. A bitset — not a list — because the loop must
	// visit nodes in ascending index order: ring and mailbox append order
	// decides downstream push order, which is real (FIFO) state.
	active []uint64

	slot uint64
	// offered counts measured injections (merged into Metrics.Offered).
	offered            uint64
	maxInterInputDepth int
	// err latches the first step failure; checked at every barrier.
	err error
}

// deliveryRecord is what the metrics need of one delivered cell, so
// the shard can retire the cell itself before the barrier.
type deliveryRecord struct {
	latency units.Time // end-to-end delay in slots
	hops    int32
	class   packet.Class
	inOrder bool
}

// farDelivery is a cell crossing a shard boundary: the absolute landing
// slot plus the delivery to ring-file at the destination.
type farDelivery struct {
	at uint64
	d  delivery
}

// farCredit is a credit return crossing a shard boundary.
type farCredit struct {
	at uint64
	cr creditReturn
}

// newShard builds the shard for nodes [lo, hi).
func newShard(f *Fabric, idx, lo, hi, nShards, window int) *shard {
	s := &shard{
		f:      f,
		idx:    idx,
		nodeLo: lo,
		nodeHi: hi,
		alloc:  packet.NewAllocator(),
	}
	s.inflight = make([][]delivery, f.ringLen)
	s.creditWire = make([][]creditReturn, f.ringLen)
	s.outCells = make([][]farDelivery, nShards)
	s.outCreds = make([][]farCredit, nShards)
	s.delivered = make([][]deliveryRecord, window)
	s.retired = make([][]*packet.Cell, nShards)
	// All nodes start active: the first slot arbitrates everything once
	// (matching the pre-active-set kernel exactly), and empty nodes with
	// skippable schedulers fall out of the set right after.
	s.active = make([]uint64, bitrow.Words(hi-lo))
	for rel := 0; rel < hi-lo; rel++ {
		bitrow.Set(s.active, rel)
	}
	return s
}

// wake puts an owned node into the arbitration work set; callers invoke
// it after every push so a cell can never sit in a VOQ of a sleeping
// node.
//
//osmosis:shardsafe
func (s *shard) wake(ni int) { bitrow.Set(s.active, ni-s.nodeLo) }

// advance ticks the shard n slots (one lookahead window or less). It
// runs concurrently with the other shards' advance calls and touches
// only shard-owned state.
func (s *shard) advance(n int, inj *injectPlan) {
	for w := 0; w < n; w++ {
		if err := s.stepSlot(w, inj); err != nil {
			s.err = err
			return
		}
	}
}

// runShards drives every shard's advance concurrently, one worker per
// shard, and waits for all of them (the window barrier).
func runShards(shards []*shard, n int, inj *injectPlan) {
	parallel.Run(len(shards), len(shards), func(i int) {
		shards[i].advance(n, inj)
	})
}

// stepSlot advances the shard one packet cycle: inject this shard's
// hosts' traffic, land due cells and credit returns, arbitrate every
// owned switch, and drain the owned host egress lines. w is the slot's
// offset inside the current window (indexes the delivered buffer).
//
//osmosis:shardsafe
func (s *shard) stepSlot(w int, inj *injectPlan) error {
	f := s.f
	slot := s.slot
	idx := int(slot) % f.ringLen
	now := units.Time(slot) * f.metrics.CycleTime

	// 0. Shard-side traffic injection (Run and Session): every host's
	// generator is an independent seeded stream, so each shard can drive
	// its own hosts' arrivals without coordination.
	if inj != nil && slot < inj.until {
		measured := f.measuringAt(slot)
		for h := s.hostLo; h < s.hostHi; h++ {
			a, ok := inj.gens[h].Next(slot)
			if !ok {
				continue
			}
			cls := packet.Data
			if a.Class == traffic.ClassControl {
				cls = packet.Control
			}
			c := s.alloc.New(h, a.Dst, cls, now)
			c.Injected = now
			if measured {
				s.offered++
			}
			if err := f.nodes[f.hostNode[h]].push(c, f.hostPort[h]); err != nil {
				return err
			}
			s.wake(f.hostNode[h])
		}
	}

	// 1. Land cells whose link flight ends this slot, then credit
	// returns that finished the reverse flight. Each link delivers at
	// most one cell per slot and credit landings commute, so the order
	// entries were ring-filed in cannot affect state.
	for _, d := range s.inflight[idx] {
		nd := f.nodes[d.node]
		if err := nd.push(d.cell, d.port); err != nil {
			return err
		}
		s.wake(d.node)
		if depth := nd.bank.Depth(d.port); depth > s.maxInterInputDepth {
			s.maxInterInputDepth = depth
		}
	}
	s.inflight[idx] = s.inflight[idx][:0]
	// Credit landings go through the node so the grantable mask sees the
	// empty→usable transition; they never wake a node — with no resident
	// cells there is nothing a fresh credit could get granted.
	for _, cr := range s.creditWire[idx] {
		f.nodes[cr.node].landCredit(cr.port)
	}
	s.creditWire[idx] = s.creditWire[idx][:0]

	// 2. Arbitrate every owned switch. Launches ride the link for
	// LinkDelaySlots+1 slots; freed input slots send credits back
	// upstream for the same reverse flight, making the end-to-end FC
	// loop exactly fc.LoopRTT(LinkDelaySlots, 1) slots.
	land := slot + uint64(f.cfg.LinkDelaySlots) + 1
	landIdx := int(land) % f.ringLen
	span := s.nodeHi - s.nodeLo
	for rel := bitrow.NextSet(s.active, span, 0); rel >= 0; rel = bitrow.NextSet(s.active, span, rel+1) {
		ni := s.nodeLo + rel
		nd := f.nodes[ni]
		launches, freed := nd.arbitrate(slot)
		for in, cnt := range freed {
			if cnt == 0 {
				continue
			}
			pi := nd.ports[in]
			if pi.Kind != UpPort && pi.Kind != DownPort {
				continue
			}
			up := nd.peerIdx[in]
			cr := creditReturn{node: up, port: pi.PeerPort}
			if t := f.nodeShard[up]; t == s.idx {
				for i := 0; i < cnt; i++ {
					//lint:ignore hotpath ring buckets reach steady-state capacity after one RTT; appends stop growing
					s.creditWire[landIdx] = append(s.creditWire[landIdx], cr)
				}
			} else {
				for i := 0; i < cnt; i++ {
					//lint:ignore hotpath mailbox reaches steady-state capacity after one window; appends stop growing
					s.outCreds[t] = append(s.outCreds[t], farCredit{at: land, cr: cr})
				}
			}
		}
		for _, l := range launches {
			pi := nd.ports[l.out]
			switch pi.Kind {
			case HostPort:
				f.hostEgress[pi.Host].Receive(l.cell)
			case UpPort, DownPort:
				d := delivery{cell: l.cell, node: nd.peerIdx[l.out], port: pi.PeerPort}
				if t := f.nodeShard[d.node]; t == s.idx {
					//lint:ignore hotpath ring buckets reach steady-state capacity after one RTT; appends stop growing
					s.inflight[landIdx] = append(s.inflight[landIdx], d)
				} else {
					//lint:ignore hotpath mailbox reaches steady-state capacity after one window; appends stop growing
					s.outCells[t] = append(s.outCells[t], farDelivery{at: land, d: d})
				}
			default:
				return fmt.Errorf("fabric: %v launched on %v port %d", nd.id, pi.Kind, l.out)
			}
		}
		// Retire drained nodes from the work set. Requires an
		// idle-skippable scheduler: an idle node holds no VOQ or egress
		// cell and no outstanding commitment (commitments are only ever
		// placed on queued cells), so every skipped slot would have been
		// an idle tick — which SkipIdle replays exactly on wake-up.
		if nd.idle() && nd.skipper != nil {
			bitrow.Clear(s.active, rel)
		}
	}

	// 3. Owned host egress lines transmit one cell each. The shard
	// checks the cell's flow order, records what the metrics need, and
	// retires the cell to the allocator that issued it; metric
	// accounting happens at the coordinator, in global (slot, host)
	// order, after the barrier.
	for h := s.hostLo; h < s.hostHi; h++ {
		c := f.hostEgress[h].Drain()
		if c == nil {
			continue
		}
		c.Delivered = now + f.metrics.CycleTime
		slots := float64(c.Delivered-c.Created) / float64(f.metrics.CycleTime)
		//lint:ignore hotpath delivered buffer is drained every barrier; capacity is cap-stable after the first window
		s.delivered[w] = append(s.delivered[w], deliveryRecord{
			latency: units.Time(slots),
			hops:    int32(c.Hops),
			class:   c.Class,
			inOrder: s.order.Deliver(c),
		})
		if t := f.hostShard[c.Src]; t == s.idx {
			s.alloc.Free(c)
		} else {
			//lint:ignore hotpath retire list is handed over every barrier; capacity is cap-stable after the first window
			s.retired[t] = append(s.retired[t], c)
		}
	}
	s.slot++
	return nil
}
