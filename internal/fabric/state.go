package fabric

// Checkpoint codec for the whole fabric. A snapshot is only taken at a
// window barrier (after Step or between Session windows), where the
// cross-shard mailboxes and delivered buffers are provably empty; the
// remaining in-flight state — cells and credit returns riding the links
// — is serialized as a global list keyed by absolute landing slot, so a
// checkpoint written by an s-shard fabric restores into an s'-shard
// fabric for any s' and continues bit-exactly: the partition is an
// execution schedule, never state.
//
// Layout (osmosis-ckpt v2 body):
//
//	begin fabric
//	  shape <hosts> <radix> <receivers> <delay> <inputCap> <egress01>
//	        <ringLen> <nodes> <cycleTime>
//	  clock <slot> <measuring01> <measureSet01> <measureFrom>
//	        <injectOffered> <shardOffered>
//	  begin metrics ... end metrics
//	  order/oflow records        (the shards' order checkers, merged)
//	  alloc/flow records         (the shards' cell identities, merged)
//	  begin nodes   one "begin node" per switch, in XGFT.NodeIDs order
//	  begin hosts   one egress section per host port
//	  begin wires   in-flight cells then aggregated credit returns,
//	                sorted by (landing slot, node, port)
//	end fabric
import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/packet"
	"repro/internal/sched"
)

// wireKey places an in-flight event: its absolute landing slot and the
// node and port it lands on.
type wireKey struct {
	land       uint64
	node, port int
}

// less orders wire keys by landing slot, then node, then port: the
// order SaveState writes wires in.
func (a wireKey) less(b wireKey) bool {
	if a.land != b.land {
		return a.land < b.land
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.port < b.port
}

// wireCell is one in-flight cell flattened out of the shard rings.
type wireCell struct {
	land uint64
	d    delivery
}

func (wc wireCell) key() wireKey { return wireKey{wc.land, wc.d.node, wc.d.port} }

// wireCredit aggregates the in-flight credit returns of one key. Credit
// landings commute, so a count is a complete description.
type wireCredit struct {
	wireKey
	count int
}

// landingSlot recovers the absolute landing slot of ring index k when
// the fabric clock reads slot. In-flight events land within ringLen-1
// slots of the barrier, so the mapping is unambiguous.
func (f *Fabric) landingSlot(k int) uint64 {
	off := (k - int(f.slot%uint64(f.ringLen)) + f.ringLen) % f.ringLen
	return f.slot + uint64(off)
}

// collectWires flattens every shard's inflight and credit rings into
// globally sorted lists.
func (f *Fabric) collectWires() ([]wireCell, []wireCredit) {
	var cells []wireCell
	credCount := make(map[wireKey]int)
	for _, s := range f.shards {
		for k, batch := range s.inflight {
			land := f.landingSlot(k)
			for _, d := range batch {
				cells = append(cells, wireCell{land: land, d: d})
			}
		}
		for k, batch := range s.creditWire {
			land := f.landingSlot(k)
			for _, cr := range batch {
				credCount[wireKey{land: land, node: cr.node, port: cr.port}]++
			}
		}
	}
	// A dual-receiver link carries up to Receivers cells per slot, so
	// (land, node, port) is not unique — and the relative order of the
	// cells sharing a key is real state (they may route into the same
	// VOQ FIFO downstream). The live engine preserves that order at any
	// shard count (the group is launched by one arbitrate call and
	// appended consecutively, and exchange keeps same-source order), so
	// a STABLE sort over the live bucket order is both canonical across
	// partitions and semantically exact.
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].key().less(cells[j].key()) })
	creds := make([]wireCredit, 0, len(credCount))
	for k, n := range credCount {
		creds = append(creds, wireCredit{k, n})
	}
	sort.Slice(creds, func(i, j int) bool { return creds[i].less(creds[j].wireKey) })
	return cells, creds
}

// atBarrier reports whether the fabric is at a window barrier: every
// cross-shard mailbox drained and every delivered buffer folded into the
// metrics. True after New, Step, Run, and between Session Advance
// calls; false only inside runWindow.
func (f *Fabric) atBarrier() bool {
	for _, s := range f.shards {
		for _, out := range s.outCells {
			if len(out) > 0 {
				return false
			}
		}
		for _, out := range s.outCreds {
			if len(out) > 0 {
				return false
			}
		}
		for _, dv := range s.delivered {
			if len(dv) > 0 {
				return false
			}
		}
	}
	return true
}

// shardBooks lists the shards' order checkers and allocators in shard
// order — ascending destination ranges for the checkers, which is the
// order the merged "order" records need.
func (f *Fabric) shardBooks() ([]*packet.OrderChecker, []*packet.Allocator) {
	orders := make([]*packet.OrderChecker, len(f.shards))
	allocs := make([]*packet.Allocator, len(f.shards))
	for i, s := range f.shards {
		orders[i], allocs[i] = s.order, s.alloc
	}
	return orders, allocs
}

func (f *Fabric) saveMetrics(e *ckpt.Encoder) {
	m := &f.metrics
	e.Begin("metrics")
	e.Put("m", ckpt.Uint(m.Offered), ckpt.Uint(m.Delivered), ckpt.Uint(m.MeasureSlots),
		ckpt.Uint(m.OrderViolations), ckpt.Uint(m.Dropped), ckpt.Uint(m.FCBlocked),
		ckpt.Int(int64(m.MaxVOQDepth)), ckpt.Int(int64(m.MaxInterInputDepth)))
	m.LatencySlots.SaveState(e)
	m.ControlLatencySlots.SaveState(e)
	hops := make([]int, 0, len(m.HopHistogram))
	for h := range m.HopHistogram {
		hops = append(hops, h)
	}
	sort.Ints(hops)
	e.Put("hops", ckpt.Uint(uint64(len(hops))))
	for _, h := range hops {
		e.Put("hop", ckpt.Int(int64(h)), ckpt.Uint(m.HopHistogram[h]))
	}
	e.End("metrics")
}

// loadMetrics restores the metrics section. Hop buckets must come in
// strictly ascending order, as saveMetrics writes them, so a restored
// histogram re-saves byte for byte.
func (f *Fabric) loadMetrics(d *ckpt.Decoder) {
	m := &f.metrics
	d.Begin("metrics")
	r := d.Record("m")
	m.Offered, m.Delivered, m.MeasureSlots = r.Uint(), r.Uint(), r.Uint()
	m.OrderViolations, m.Dropped, m.FCBlocked = r.Uint(), r.Uint(), r.Uint()
	m.MaxVOQDepth, m.MaxInterInputDepth = r.IntIn(0, math.MaxInt), r.IntIn(0, math.MaxInt)
	r.Done()
	m.LatencySlots.LoadState(d)
	m.ControlLatencySlots.LoadState(d)
	hr := d.Record("hops")
	nh := hr.Count()
	hr.Done()
	m.HopHistogram = make(map[int]uint64)
	prev := -1
	for i := 0; i < nh; i++ {
		rec := d.Record("hop")
		h, c := rec.IntIn(0, math.MaxInt), rec.Uint()
		rec.Done()
		if h <= prev {
			d.Fail(fmt.Errorf("fabric: hop histogram bucket %d follows %d, want strictly ascending buckets", h, prev))
			return
		}
		prev = h
		m.HopHistogram[h] = c
	}
	d.End("metrics")
}

func (f *Fabric) saveNode(e *ckpt.Encoder, n *node) {
	e.Begin("node")
	e.Put("nstat", ckpt.Uint(n.fcBlocked), ckpt.Int(int64(n.maxVOQDepth)))
	codec, ok := n.sch.(sched.StateCodec)
	if !ok {
		e.Fail(fmt.Errorf("fabric: scheduler %T of node %v is not checkpointable", n.sch, n.id))
		return
	}
	codec.SaveState(e)
	n.bank.SaveState(e)
	ncred := 0
	for _, c := range n.credits {
		if c != nil {
			ncred++
		}
	}
	e.Put("ncred", ckpt.Uint(uint64(ncred)))
	for out, c := range n.credits {
		if c == nil {
			continue
		}
		e.Put("credout", ckpt.Int(int64(out)))
		c.SaveState(e)
	}
	if n.egress != nil {
		e.Put("negress", ckpt.Uint(uint64(len(n.egress))))
		for _, eg := range n.egress {
			eg.SaveState(e)
		}
	} else {
		e.Put("negress", ckpt.Uint(0))
	}
	e.End("node")
}

func (f *Fabric) loadNode(d *ckpt.Decoder, n *node) {
	d.Begin("node")
	r := d.Record("nstat")
	n.fcBlocked = r.Uint()
	n.maxVOQDepth = r.IntIn(0, math.MaxInt)
	r.Done()
	codec, ok := n.sch.(sched.StateCodec)
	if !ok {
		d.Fail(fmt.Errorf("fabric: scheduler %T of node %v is not checkpointable", n.sch, n.id))
		return
	}
	codec.LoadState(d)
	n.bank.LoadState(d, f.cfg.Network.Hosts)
	cr := d.Record("ncred")
	ncred := cr.Uint()
	cr.Done()
	wantCred := 0
	for _, c := range n.credits {
		if c != nil {
			wantCred++
		}
	}
	if ncred != uint64(wantCred) {
		d.Fail(fmt.Errorf("fabric: node %v has %d credit counters, checkpoint %d", n.id, wantCred, ncred))
		return
	}
	for out, c := range n.credits {
		if c == nil {
			continue
		}
		or := d.Record("credout")
		if saved := or.Int(); saved != int64(out) {
			d.Fail(fmt.Errorf("fabric: node %v credit counter on output %d, checkpoint says %d", n.id, out, saved))
			return
		}
		or.Done()
		c.LoadState(d)
	}
	er := d.Record("negress")
	negress := er.Uint()
	er.Done()
	if negress != uint64(len(n.egress)) {
		d.Fail(fmt.Errorf("fabric: node %v egress buffering mismatch (have %d, checkpoint %d)", n.id, len(n.egress), negress))
		return
	}
	for _, eg := range n.egress {
		eg.LoadState(d, f.cfg.Network.Hosts)
	}
	d.End("node")
}

// SaveState serializes the complete runnable state of the fabric. It
// must be called at a window barrier; saving mid-window poisons the
// encoder. The caller owns section framing and Close.
func (f *Fabric) SaveState(e *ckpt.Encoder) {
	if !f.atBarrier() {
		e.Fail(fmt.Errorf("fabric: checkpoint requested mid-window; save only at a barrier"))
		return
	}
	e.Begin("fabric")
	e.Put("shape",
		ckpt.Int(int64(f.cfg.Network.Hosts)), ckpt.Int(int64(f.cfg.Network.Radix)),
		ckpt.Int(int64(f.cfg.Receivers)), ckpt.Int(int64(f.cfg.LinkDelaySlots)),
		ckpt.Int(int64(f.cfg.InputCapacity)), ckpt.Bool(f.cfg.EgressBuffered),
		ckpt.Int(int64(f.ringLen)), ckpt.Int(int64(len(f.nodes))),
		ckpt.Int(int64(f.metrics.CycleTime)))
	var shardOffered uint64
	for _, s := range f.shards {
		shardOffered += s.offered
	}
	e.Put("clock",
		ckpt.Uint(f.slot), ckpt.Bool(f.measuring), ckpt.Bool(f.measureSet),
		ckpt.Uint(f.measureFrom), ckpt.Uint(f.injectOffered), ckpt.Uint(shardOffered))
	f.saveMetrics(e)
	orders, allocs := f.shardBooks()
	packet.SaveMergedOrderState(e, orders...)
	packet.SaveMergedState(e, allocs...)

	e.Begin("nodes")
	for _, n := range f.nodes {
		// Canonicalize before serializing: a node parked out of the
		// active set carries deferred idle skips; replaying them now
		// makes the scheduler bytes identical to an always-ticked twin's,
		// so checkpoints stay byte-deterministic across shard counts and
		// activity histories. (Skips are additive, so this never changes
		// the run — it only moves bookkeeping forward.)
		n.normalizeSched(f.slot)
		f.saveNode(e, n)
	}
	e.End("nodes")

	e.Begin("hosts")
	for _, eg := range f.hostEgress {
		eg.SaveState(e)
	}
	e.End("hosts")

	cells, creds := f.collectWires()
	e.Begin("wires")
	e.Put("cells", ckpt.Uint(uint64(len(cells))))
	for _, wc := range cells {
		e.Put("w", ckpt.Uint(wc.land), ckpt.Int(int64(wc.d.node)), ckpt.Int(int64(wc.d.port)))
		packet.SaveCell(e, wc.d.cell)
	}
	e.Put("creds", ckpt.Uint(uint64(len(creds))))
	for _, wc := range creds {
		e.Put("cw", ckpt.Uint(wc.land), ckpt.Int(int64(wc.node)), ckpt.Int(int64(wc.port)),
			ckpt.Int(int64(wc.count)))
	}
	e.End("wires")
	e.End("fabric")
}

// LoadState restores a SaveState snapshot into a freshly built fabric of
// the same configuration shape. The shard count is free to differ from
// the saving fabric's: in-flight state is re-filed by the restoring
// partition. After LoadState the fabric continues bit-exactly — same
// metrics, same fingerprint — as the fabric that saved. A refusal
// latches on d, and the fabric is then fit only to be discarded.
func (f *Fabric) LoadState(d *ckpt.Decoder) {
	orders, allocs := f.shardBooks()
	var issued uint64
	for _, a := range allocs {
		issued += a.Issued()
	}
	if f.slot != 0 || issued != 0 || f.metrics.Delivered > 0 {
		d.Fail(fmt.Errorf("fabric: restore target must be freshly built (slot %d, %d cells issued)", f.slot, issued))
		return
	}
	d.Begin("fabric")
	r := d.Record("shape")
	hosts, radix := r.Int(), r.Int()
	receivers, delay := r.Int(), r.Int()
	inputCap := r.Int()
	egressBuffered := r.Bool()
	ringLen, nodes := r.Int(), r.Int()
	cycle := r.Int()
	r.Done()
	if hosts != int64(f.cfg.Network.Hosts) || radix != int64(f.cfg.Network.Radix) || receivers != int64(f.cfg.Receivers) ||
		delay != int64(f.cfg.LinkDelaySlots) || inputCap != int64(f.cfg.InputCapacity) ||
		egressBuffered != f.cfg.EgressBuffered || ringLen != int64(f.ringLen) ||
		nodes != int64(len(f.nodes)) || cycle != int64(f.metrics.CycleTime) {
		d.Fail(fmt.Errorf("fabric: checkpoint shape (hosts=%d radix=%d recv=%d delay=%d cap=%d egress=%v ring=%d nodes=%d cycle=%d) does not match this fabric (hosts=%d radix=%d recv=%d delay=%d cap=%d egress=%v ring=%d nodes=%d cycle=%d)",
			hosts, radix, receivers, delay, inputCap, egressBuffered, ringLen, nodes, cycle,
			f.cfg.Network.Hosts, f.cfg.Network.Radix, f.cfg.Receivers, f.cfg.LinkDelaySlots, f.cfg.InputCapacity,
			f.cfg.EgressBuffered, f.ringLen, len(f.nodes), int64(f.metrics.CycleTime)))
		return
	}

	cr := d.Record("clock")
	slot := cr.Uint()
	measuring, measureSet := cr.Bool(), cr.Bool()
	measureFrom, injectOffered, shardOffered := cr.Uint(), cr.Uint(), cr.Uint()
	cr.Done()
	f.loadMetrics(d)
	packet.LoadSplitOrderState(d, orders...)
	// Each shard's allocator takes only the counters of the hosts it
	// issues for; a source outside the fabric is refused.
	owner := func(src int) int {
		if src >= f.cfg.Network.Hosts {
			return -1
		}
		return f.hostShard[src]
	}
	packet.LoadMergedState(d, owner, allocs...)

	d.Begin("nodes")
	for _, n := range f.nodes {
		f.loadNode(d, n)
	}
	d.End("nodes")

	d.Begin("hosts")
	for _, eg := range f.hostEgress {
		eg.LoadState(d, f.cfg.Network.Hosts)
	}
	d.End("hosts")

	// Commit the clock before re-filing wires: ring indexing below uses
	// the restored slot.
	f.slot = slot
	f.measuring = measuring
	f.measureSet = measureSet
	f.measureFrom = measureFrom
	f.injectOffered = injectOffered
	for _, s := range f.shards {
		s.slot = slot
		s.offered = 0
		s.maxInterInputDepth = 0
	}
	// The per-shard offered split is an execution detail; only the sum
	// feeds Metrics.Offered, so the whole balance can live on shard 0.
	f.shards[0].offered = shardOffered

	// Rebuild every node's derived state — grantable masks, egress cell
	// counts, scheduler slot cursors — from the restored queues and
	// counters; each bank rebuilt its demand bits and depths on load.
	// The checkpoint format never carries derived bits, so old
	// snapshots restore unchanged. Shards leave all nodes in the active
	// set (how newShard built them); empty nodes drop out after their
	// first arbitrate, which is equivalent to skipping them outright
	// because an idle tick IS SkipIdle(1).
	for _, n := range f.nodes {
		n.rebuildDerived(slot)
	}

	// Wires land within ringLen slots of the barrier, on a node of this
	// fabric and a port of its switches, in the order collectWires sorts
	// them into: cells sharing a key keep their order, and each credit
	// key appears once.
	d.Begin("wires")
	wr := d.Record("cells")
	nCells := wr.Count()
	wr.Done()
	horizon := slot + uint64(f.ringLen)
	readKey := func(rec *ckpt.Rec) wireKey {
		return wireKey{land: rec.UintIn(slot, horizon), node: rec.IntIn(0, len(f.nodes)), port: rec.IntIn(0, f.cfg.Network.Radix)}
	}
	var prev wireKey
	for i := 0; i < nCells; i++ {
		rec := d.Record("w")
		wk := readKey(rec)
		rec.Done()
		if wk.less(prev) {
			d.Fail(fmt.Errorf("fabric: in-flight cell %+v follows %+v, out of (slot, node, port) order", wk, prev))
			return
		}
		prev = wk
		sh := f.shards[f.nodeShard[wk.node]]
		k := int(wk.land % uint64(f.ringLen))
		sh.inflight[k] = append(sh.inflight[k], delivery{cell: packet.LoadCell(d, f.cfg.Network.Hosts), node: wk.node, port: wk.port})
	}
	wr = d.Record("creds")
	nCreds := wr.Count()
	wr.Done()
	for i := 0; i < nCreds; i++ {
		rec := d.Record("cw")
		wk := readKey(rec)
		// No more credits can be in flight to one port than the buffer
		// behind it holds; a forged count would append without bound.
		count := rec.IntIn(1, f.cfg.InputCapacity+1)
		rec.Done()
		if i > 0 && !prev.less(wk) {
			d.Fail(fmt.Errorf("fabric: credit return %+v follows %+v, repeated or out of (slot, node, port) order", wk, prev))
			return
		}
		prev = wk
		sh := f.shards[f.nodeShard[wk.node]]
		k := int(wk.land % uint64(f.ringLen))
		cr := creditReturn{node: wk.node, port: wk.port}
		for j := 0; j < count; j++ {
			sh.creditWire[k] = append(sh.creditWire[k], cr)
		}
	}
	d.End("wires")
	d.End("fabric")
}
