package fabric

import "fmt"

// XGFT is a generalized folded fat tree of uniform radix-k switches with
// L levels — the topology family behind the §VI.C stage-count study
// (2 levels = 3 stages for OSMOSIS-64, 3 levels = 5 stages for 32-port
// electronic switches, 5 levels = 9 stages for 8-port commodity parts).
//
// Structure, with arity a = k/2 and 0-based levels:
//
//   - capacity C = k * a^(L-1) hosts;
//   - every non-top level has C/a = 2*a^(L-1) switches, each with a
//     down-ports and a up-ports;
//   - the top level (L-1) has C/k = a^(L-1) switches with k down-ports;
//   - a level-l switch with pod index p and within-pod index s is
//     addressed Index = p*a^l + s; its down subtree is exactly the
//     level-(l+1) pod p (a^(l+1) hosts).
//
// Wiring (symmetric by construction, verified by tests):
//
//	level l (p, s), up-port u  ->  level l+1 (p/a, s + u*a^l), down-port p%a   (l+1 < L-1)
//	level L-2 (p, s), up-port u ->  top (s + u*a^(L-2)), down-port p           (p in [0, k))
type XGFT struct {
	// Levels is L >= 1; Radix is the even switch port count k.
	Levels, Radix int
	// Hosts actually populated (<= capacity); hosts attach in order.
	Hosts int
}

// NewXGFT builds the smallest L-level tree of radix-k switches covering
// n hosts, or an explicit level count when levels > 0.
func NewXGFT(n, radix, levels int) (XGFT, error) {
	if radix < 2 || radix%2 != 0 {
		return XGFT{}, fmt.Errorf("fabric: radix %d must be even and >= 2", radix)
	}
	if n <= 0 {
		return XGFT{}, fmt.Errorf("fabric: host count %d must be positive", n)
	}
	if levels <= 0 {
		levels = 1
		for capacityXGFT(levels, radix) < n {
			levels++
			if levels > 12 {
				return XGFT{}, fmt.Errorf("fabric: %d hosts need more than 12 levels of radix-%d switches", n, radix)
			}
		}
	}
	if c := capacityXGFT(levels, radix); n > c {
		return XGFT{}, fmt.Errorf("fabric: %d hosts exceed the %d-level capacity %d of radix-%d switches", n, levels, c, radix)
	}
	return XGFT{Levels: levels, Radix: radix, Hosts: n}, nil
}

func capacityXGFT(levels, radix int) int {
	a := radix / 2
	c := radix
	for i := 1; i < levels; i++ {
		c *= a
	}
	return c
}

// arity reports k/2.
func (x XGFT) arity() int { return x.Radix / 2 }

// pow reports arity^e.
func (x XGFT) pow(e int) int {
	a := x.arity()
	v := 1
	for i := 0; i < e; i++ {
		v *= a
	}
	return v
}

// Capacity reports the maximum host count.
func (x XGFT) Capacity() int { return capacityXGFT(x.Levels, x.Radix) }

// StageCount reports the switch traversals on the longest path.
func (x XGFT) StageCount() int { return 2*x.Levels - 1 }

// switchesAt reports the switch count of one level.
func (x XGFT) switchesAt(level int) int {
	if x.Levels == 1 {
		return 1
	}
	if level == x.Levels-1 {
		return x.Capacity() / x.Radix
	}
	return x.Capacity() / x.arity()
}

// NodeIDs lists every switch, level by level, leaves first.
func (x XGFT) NodeIDs() []NodeID {
	var ids []NodeID
	for l := 0; l < x.Levels; l++ {
		for i := 0; i < x.switchesAt(l); i++ {
			ids = append(ids, NodeID{Level: l, Index: i})
		}
	}
	return ids
}

// split decomposes a non-top switch index into (pod, within-pod) parts.
func (x XGFT) split(level, idx int) (pod, s int) {
	block := x.pow(level)
	return idx / block, idx % block
}

// HostLeaf reports the switch and port a host attaches to.
func (x XGFT) HostLeaf(host int) (NodeID, int) {
	if x.Levels == 1 {
		return NodeID{Level: 0, Index: 0}, host
	}
	a := x.arity()
	return NodeID{Level: 0, Index: host / a}, host % a
}

// PortMap describes the wiring of one switch's ports.
func (x XGFT) PortMap(n NodeID) ([]PortInfo, error) {
	if n.Level < 0 || n.Level >= x.Levels || n.Index < 0 || n.Index >= x.switchesAt(n.Level) {
		return nil, fmt.Errorf("fabric: invalid node %v in %d-level radix-%d XGFT", n, x.Levels, x.Radix)
	}
	k, a := x.Radix, x.arity()
	ports := make([]PortInfo, k)

	if x.Levels == 1 {
		for p := 0; p < k; p++ {
			if p < x.Hosts {
				ports[p] = PortInfo{Kind: HostPort, Host: p}
			} else {
				ports[p] = PortInfo{Kind: Unused}
			}
		}
		return ports, nil
	}

	top := x.Levels - 1
	if n.Level == top {
		// k down-ports, one per level-(L-1) pod.
		block := x.pow(top - 1) // within-pod size of level L-2
		for p := 0; p < k; p++ {
			child := p*block + n.Index%block
			u := n.Index / block
			ports[p] = PortInfo{
				Kind:     DownPort,
				Peer:     NodeID{Level: top - 1, Index: child},
				PeerPort: a + u,
			}
		}
		return ports, nil
	}

	pod, s := x.split(n.Level, n.Index)

	// Down side.
	if n.Level == 0 {
		for c := 0; c < a; c++ {
			host := n.Index*a + c
			if host < x.Hosts {
				ports[c] = PortInfo{Kind: HostPort, Host: host}
			} else {
				ports[c] = PortInfo{Kind: Unused}
			}
		}
	} else {
		// Down-port c reaches the level-(l-1) switch with the same
		// within-sub-pod index in child pod pod*a + c.
		childBlock := x.pow(n.Level - 1)
		for c := 0; c < a; c++ {
			childPod := pod*a + c
			childIdx := childPod*childBlock + s%childBlock
			u := s / childBlock
			ports[c] = PortInfo{
				Kind:     DownPort,
				Peer:     NodeID{Level: n.Level - 1, Index: childIdx},
				PeerPort: a + u,
			}
		}
	}

	// Up side.
	if n.Level == top-1 {
		block := x.pow(top - 1)
		for u := 0; u < a; u++ {
			t := s + u*block
			ports[a+u] = PortInfo{
				Kind:     UpPort,
				Peer:     NodeID{Level: top, Index: t},
				PeerPort: pod,
			}
		}
	} else {
		block := x.pow(n.Level)
		for u := 0; u < a; u++ {
			parentIdx := (pod/a)*(block*a) + (s + u*block)
			ports[a+u] = PortInfo{
				Kind:     UpPort,
				Peer:     NodeID{Level: n.Level + 1, Index: parentIdx},
				PeerPort: pod % a,
			}
		}
	}
	return ports, nil
}

// flowHash mixes (src, dst, level) into a deterministic up-path choice.
func flowHash(src, dst, level int) uint64 {
	h := uint64(src)*0x9e3779b97f4a7c15 ^ uint64(dst)*0xd1342543de82ef95 ^ uint64(level)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Route reports the output port at node n for a cell src -> dst:
// deterministic per flow, which order preservation depends on.
func (x XGFT) Route(n NodeID, src, dst int) (int, error) {
	if dst < 0 || dst >= x.Hosts {
		return -1, fmt.Errorf("fabric: destination %d out of range", dst)
	}
	if x.Levels == 1 {
		return dst, nil
	}
	a := x.arity()
	top := x.Levels - 1
	if n.Level == top {
		// Down-port = the destination's level-(L-1) pod.
		return dst / x.pow(top), nil
	}
	pod, _ := x.split(n.Level, n.Index)
	dstPod := dst / x.pow(n.Level+1)
	if dstPod == pod {
		if n.Level == 0 {
			return dst % a, nil
		}
		// Sub-pod of dst within this pod.
		return (dst / x.pow(n.Level)) % a, nil
	}
	// Go up; deterministic per flow for order preservation.
	return a + int(flowHash(src, dst, n.Level)%uint64(a)), nil
}

// NodeID identifies a switch in the fabric.
type NodeID struct {
	// Level counts up from the leaves (0); level 1 of a two-level tree
	// is the spine.
	Level int
	// Index within the level.
	Index int
}

// String formats the node for diagnostics.
func (n NodeID) String() string {
	if n.Level == 0 {
		return fmt.Sprintf("leaf%d", n.Index)
	}
	return fmt.Sprintf("spine%d", n.Index)
}

// PortKind classifies a switch port.
type PortKind uint8

// Port kinds.
const (
	// HostPort connects an end host (leaf down-ports).
	HostPort PortKind = iota
	// UpPort connects a switch to one a level up.
	UpPort
	// DownPort connects a switch to one a level down.
	DownPort
	// Unused marks ports beyond the configured host count.
	Unused
)

// PortInfo describes one switch port's wiring.
type PortInfo struct {
	Kind PortKind
	// Peer is the switch on the far end (UpPort/DownPort only).
	Peer NodeID
	// PeerPort is the port index at the peer.
	PeerPort int
	// Host is the attached host (HostPort only).
	Host int
}
