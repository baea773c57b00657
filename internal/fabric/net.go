package fabric

import "fmt"

// Net abstracts the wiring of a multistage fabric so the simulation
// engine is independent of the topology family; XGFT is the one in
// tree. All implementations must provide symmetric wiring (if a port
// claims a peer, the peer claims it back) and deterministic per-flow
// routing (order preservation depends on it).
type Net interface {
	// SwitchRadix is the switch port count (identical switches per
	// stage, matching the paper's cost assumption).
	SwitchRadix() int
	// HostCount is the number of end ports.
	HostCount() int
	// StageCount is the switch traversals on the longest path.
	StageCount() int
	// NodeIDs lists every switch, in a fixed deterministic order.
	NodeIDs() []NodeID
	// PortMap describes the wiring of one switch's ports.
	PortMap(NodeID) ([]PortInfo, error)
	// Route reports the output port at node n for a cell src -> dst.
	Route(n NodeID, src, dst int) (int, error)
	// HostLeaf reports the switch and port a host attaches to.
	HostLeaf(host int) (NodeID, int)
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
