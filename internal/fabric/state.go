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
//	  begin nodes   one "begin node" per switch, in Net.NodeIDs order
//	  begin hosts   one egress section per host port
//	  begin wires   in-flight cells then aggregated credit returns,
//	                sorted by (landing slot, node, port)
//	end fabric
import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/packet"
	"repro/internal/sched"
)

// wireCell is one in-flight cell flattened out of the shard rings.
type wireCell struct {
	land uint64
	d    delivery
}

// wireCredit aggregates in-flight credit returns for one (landing slot,
// upstream node, upstream port) key. Credit landings commute, so a count
// is a complete description.
type wireCredit struct {
	land       uint64
	node, port int
	count      int
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
	credCount := make(map[wireCredit]int)
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
				credCount[wireCredit{land: land, node: cr.node, port: cr.port}]++
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
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.land != b.land {
			return a.land < b.land
		}
		if a.d.node != b.d.node {
			return a.d.node < b.d.node
		}
		return a.d.port < b.d.port
	})
	creds := make([]wireCredit, 0, len(credCount))
	for k, n := range credCount {
		k.count = n
		creds = append(creds, k)
	}
	sort.Slice(creds, func(i, j int) bool {
		a, b := creds[i], creds[j]
		if a.land != b.land {
			return a.land < b.land
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.port < b.port
	})
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

func (f *Fabric) loadMetrics(d *ckpt.Decoder) error {
	m := &f.metrics
	if err := d.Begin("metrics"); err != nil {
		return err
	}
	r := d.Record("m")
	m.Offered, m.Delivered, m.MeasureSlots = r.Uint(), r.Uint(), r.Uint()
	m.OrderViolations, m.Dropped, m.FCBlocked = r.Uint(), r.Uint(), r.Uint()
	m.MaxVOQDepth, m.MaxInterInputDepth = r.IntAsInt(), r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if err := m.LatencySlots.LoadState(d); err != nil {
		return err
	}
	if err := m.ControlLatencySlots.LoadState(d); err != nil {
		return err
	}
	hr := d.Record("hops")
	nh := hr.Uint()
	if err := hr.Done(); err != nil {
		return err
	}
	// No size hint: nh is read from the file, and the map grows only
	// as its records are read.
	m.HopHistogram = make(map[int]uint64)
	for i := uint64(0); i < nh; i++ {
		rec := d.Record("hop")
		h, c := rec.IntAsInt(), rec.Uint()
		if err := rec.Done(); err != nil {
			return err
		}
		if _, dup := m.HopHistogram[h]; dup {
			return fmt.Errorf("fabric: hop histogram bucket %d duplicated", h)
		}
		m.HopHistogram[h] = c
	}
	return d.End("metrics")
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

func (f *Fabric) loadNode(d *ckpt.Decoder, n *node) error {
	if err := d.Begin("node"); err != nil {
		return err
	}
	r := d.Record("nstat")
	n.fcBlocked = r.Uint()
	n.maxVOQDepth = r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	codec, ok := n.sch.(sched.StateCodec)
	if !ok {
		return fmt.Errorf("fabric: scheduler %T of node %v is not checkpointable", n.sch, n.id)
	}
	if err := codec.LoadState(d); err != nil {
		return fmt.Errorf("fabric: node %v scheduler: %w", n.id, err)
	}
	if err := n.bank.LoadState(d); err != nil {
		return fmt.Errorf("fabric: node %v %w", n.id, err)
	}
	cr := d.Record("ncred")
	ncred := cr.Uint()
	if err := cr.Done(); err != nil {
		return err
	}
	wantCred := 0
	for _, c := range n.credits {
		if c != nil {
			wantCred++
		}
	}
	if int(ncred) != wantCred {
		return fmt.Errorf("fabric: node %v has %d credit counters, checkpoint %d", n.id, wantCred, ncred)
	}
	for out, c := range n.credits {
		if c == nil {
			continue
		}
		or := d.Record("credout")
		savedOut := or.IntAsInt()
		if err := or.Done(); err != nil {
			return err
		}
		if savedOut != out {
			return fmt.Errorf("fabric: node %v credit counter on output %d, checkpoint says %d", n.id, out, savedOut)
		}
		if err := c.LoadState(d); err != nil {
			return fmt.Errorf("fabric: node %v credits out %d: %w", n.id, out, err)
		}
	}
	er := d.Record("negress")
	negress := er.Uint()
	if err := er.Done(); err != nil {
		return err
	}
	if (n.egress == nil) != (negress == 0) || (n.egress != nil && int(negress) != len(n.egress)) {
		return fmt.Errorf("fabric: node %v egress buffering mismatch (have %d, checkpoint %d)", n.id, len(n.egress), negress)
	}
	for out, eg := range n.egress {
		if err := eg.LoadState(d); err != nil {
			return fmt.Errorf("fabric: node %v egress out %d: %w", n.id, out, err)
		}
	}
	return d.End("node")
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
		ckpt.Int(int64(f.cfg.Hosts)), ckpt.Int(int64(f.cfg.Radix)),
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
// metrics, same fingerprint — as the fabric that saved.
func (f *Fabric) LoadState(d *ckpt.Decoder) error {
	orders, allocs := f.shardBooks()
	var issued uint64
	for _, a := range allocs {
		issued += a.Issued()
	}
	if f.slot != 0 || issued != 0 || f.metrics.Delivered > 0 {
		return fmt.Errorf("fabric: restore target must be freshly built (slot %d, %d cells issued)", f.slot, issued)
	}
	if err := d.Begin("fabric"); err != nil {
		return err
	}
	r := d.Record("shape")
	hosts, radix := r.IntAsInt(), r.IntAsInt()
	receivers, delay := r.IntAsInt(), r.IntAsInt()
	inputCap := r.IntAsInt()
	egressBuffered := r.Bool()
	ringLen, nodes := r.IntAsInt(), r.IntAsInt()
	cycle := r.Int()
	if err := r.Done(); err != nil {
		return err
	}
	if hosts != f.cfg.Hosts || radix != f.cfg.Radix || receivers != f.cfg.Receivers ||
		delay != f.cfg.LinkDelaySlots || inputCap != f.cfg.InputCapacity ||
		egressBuffered != f.cfg.EgressBuffered || ringLen != f.ringLen ||
		nodes != len(f.nodes) || cycle != int64(f.metrics.CycleTime) {
		return fmt.Errorf("fabric: checkpoint shape (hosts=%d radix=%d recv=%d delay=%d cap=%d egress=%v ring=%d nodes=%d cycle=%d) does not match this fabric (hosts=%d radix=%d recv=%d delay=%d cap=%d egress=%v ring=%d nodes=%d cycle=%d)",
			hosts, radix, receivers, delay, inputCap, egressBuffered, ringLen, nodes, cycle,
			f.cfg.Hosts, f.cfg.Radix, f.cfg.Receivers, f.cfg.LinkDelaySlots, f.cfg.InputCapacity,
			f.cfg.EgressBuffered, f.ringLen, len(f.nodes), int64(f.metrics.CycleTime))
	}

	cr := d.Record("clock")
	slot := cr.Uint()
	measuring, measureSet := cr.Bool(), cr.Bool()
	measureFrom, injectOffered, shardOffered := cr.Uint(), cr.Uint(), cr.Uint()
	if err := cr.Done(); err != nil {
		return err
	}
	if err := f.loadMetrics(d); err != nil {
		return err
	}
	if err := packet.LoadSplitOrderState(d, orders...); err != nil {
		return err
	}
	// Each shard's allocator takes only the counters of the hosts it
	// issues for; a source outside the fabric is refused.
	owner := func(src int) int {
		if src >= f.cfg.Hosts {
			return -1
		}
		return f.hostShard[src]
	}
	if err := packet.LoadMergedState(d, owner, allocs...); err != nil {
		return err
	}

	if err := d.Begin("nodes"); err != nil {
		return err
	}
	for _, n := range f.nodes {
		if err := f.loadNode(d, n); err != nil {
			return err
		}
	}
	if err := d.End("nodes"); err != nil {
		return err
	}

	if err := d.Begin("hosts"); err != nil {
		return err
	}
	for h, eg := range f.hostEgress {
		if err := eg.LoadState(d); err != nil {
			return fmt.Errorf("fabric: host %d egress: %w", h, err)
		}
	}
	if err := d.End("hosts"); err != nil {
		return err
	}

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

	if err := d.Begin("wires"); err != nil {
		return err
	}
	wr := d.Record("cells")
	nCells := wr.Uint()
	if err := wr.Done(); err != nil {
		return err
	}
	horizon := slot + uint64(f.ringLen)
	for i := uint64(0); i < nCells; i++ {
		rec := d.Record("w")
		land := rec.Uint()
		node, port := rec.IntAsInt(), rec.IntAsInt()
		if err := rec.Done(); err != nil {
			return err
		}
		c, err := packet.LoadCell(d)
		if err != nil {
			return err
		}
		if node < 0 || node >= len(f.nodes) {
			return fmt.Errorf("fabric: in-flight cell lands at node %d of %d", node, len(f.nodes))
		}
		if port < 0 || port >= f.cfg.Radix {
			return fmt.Errorf("fabric: in-flight cell lands on port %d of radix %d", port, f.cfg.Radix)
		}
		if land < slot || land >= horizon {
			return fmt.Errorf("fabric: in-flight cell lands at slot %d outside [%d, %d)", land, slot, horizon)
		}
		sh := f.shards[f.nodeShard[node]]
		k := int(land % uint64(f.ringLen))
		sh.inflight[k] = append(sh.inflight[k], delivery{cell: c, node: node, port: port})
	}
	wr = d.Record("creds")
	nCreds := wr.Uint()
	if err := wr.Done(); err != nil {
		return err
	}
	for i := uint64(0); i < nCreds; i++ {
		rec := d.Record("cw")
		land := rec.Uint()
		node, port := rec.IntAsInt(), rec.IntAsInt()
		count := rec.IntAsInt()
		if err := rec.Done(); err != nil {
			return err
		}
		if node < 0 || node >= len(f.nodes) {
			return fmt.Errorf("fabric: credit return lands at node %d of %d", node, len(f.nodes))
		}
		if port < 0 || port >= f.cfg.Radix {
			return fmt.Errorf("fabric: credit return lands on port %d of radix %d", port, f.cfg.Radix)
		}
		if land < slot || land >= horizon {
			return fmt.Errorf("fabric: credit return lands at slot %d outside [%d, %d)", land, slot, horizon)
		}
		if count <= 0 {
			return fmt.Errorf("fabric: credit return count %d must be positive", count)
		}
		sh := f.shards[f.nodeShard[node]]
		k := int(land % uint64(f.ringLen))
		cr := creditReturn{node: node, port: port}
		for j := 0; j < count; j++ {
			sh.creditWire[k] = append(sh.creditWire[k], cr)
		}
	}
	if err := d.End("wires"); err != nil {
		return err
	}
	return d.End("fabric")
}
