package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/traffic"
)

func TestXGFTValidation(t *testing.T) {
	if _, err := NewXGFT(10, 7, 0); err == nil {
		t.Error("odd radix accepted")
	}
	if _, err := NewXGFT(0, 8, 0); err == nil {
		t.Error("zero hosts accepted")
	}
	if _, err := NewXGFT(1000, 8, 2); err == nil {
		t.Error("over-capacity explicit levels accepted")
	}
	if _, err := NewXGFT(1<<40, 4, 0); err == nil {
		t.Error("absurd host count accepted")
	}
}

func TestXGFTAutoLevels(t *testing.T) {
	cases := []struct {
		hosts, radix, wantLevels, wantStages int
	}{
		{48, 64, 1, 1},
		{2048, 64, 2, 3}, // OSMOSIS
		{2048, 32, 3, 5}, // high-end electronic
		{2048, 8, 5, 9},  // commodity
		{2048, 12, 4, 7}, // 12-port commodity
	}
	for _, c := range cases {
		x, err := NewXGFT(c.hosts, c.radix, 0)
		if err != nil {
			t.Fatalf("hosts %d radix %d: %v", c.hosts, c.radix, err)
		}
		if x.Levels != c.wantLevels || x.StageCount() != c.wantStages {
			t.Errorf("hosts %d radix %d: levels %d stages %d, want %d/%d",
				c.hosts, c.radix, x.Levels, x.StageCount(), c.wantLevels, c.wantStages)
		}
	}
}

func TestXGFTMatchesPlanFabricStageCounts(t *testing.T) {
	// The simulated wiring and the analytic §VI.C planner must agree.
	for _, radix := range []int{8, 12, 16, 32, 64} {
		x, err := NewXGFT(2048, radix, 0)
		if err != nil {
			t.Fatal(err)
		}
		// power.PlanFabric is not imported to avoid a cycle; its formula
		// is capacity = k*(k/2)^(L-1), identical to capacityXGFT.
		want := 2*x.Levels - 1
		if x.StageCount() != want {
			t.Errorf("radix %d: stages %d", radix, x.StageCount())
		}
	}
}

// checkWiringSymmetric checks every inter-switch link of x in both
// directions: if a:p claims b:q then b:q must claim a:p, with opposite
// up/down kinds.
func checkWiringSymmetric(t *testing.T, x XGFT) {
	t.Helper()
	for _, id := range x.NodeIDs() {
		ports, err := x.PortMap(id)
		if err != nil {
			t.Fatal(err)
		}
		for p, pi := range ports {
			if pi.Kind != UpPort && pi.Kind != DownPort {
				continue
			}
			peerPorts, err := x.PortMap(pi.Peer)
			if err != nil {
				t.Fatalf("%v port %d -> invalid peer %v: %v", id, p, pi.Peer, err)
			}
			back := peerPorts[pi.PeerPort]
			if back.Peer != id || back.PeerPort != p {
				t.Fatalf("%d-level: asymmetric wiring %v:%d -> %v:%d -> %v:%d",
					x.Levels, id, p, pi.Peer, pi.PeerPort, back.Peer, back.PeerPort)
			}
			if (pi.Kind == UpPort) == (back.Kind == UpPort) {
				t.Fatalf("link direction kinds inconsistent at %v:%d", id, p)
			}
		}
	}
}

// TestXGFTWiringSymmetric checks the wiring of explicitly deep trees;
// TestPortMapWiringIsConsistent covers the default two-level one.
func TestXGFTWiringSymmetric(t *testing.T) {
	for _, c := range []struct{ hosts, radix, levels int }{
		{512, 16, 3},
		{256, 8, 4},
		{512, 8, 5},
	} {
		x, err := NewXGFT(c.hosts, c.radix, c.levels)
		if err != nil {
			t.Fatal(err)
		}
		checkWiringSymmetric(t, x)
	}
}

// checkHostsCovered checks the host addressing of x: every host is
// wired to exactly one leaf port, and HostLeaf names that port.
func checkHostsCovered(t *testing.T, x XGFT) {
	t.Helper()
	seen := make([]bool, x.Hosts)
	for _, id := range x.NodeIDs() {
		if id.Level != 0 {
			continue
		}
		ports, err := x.PortMap(id)
		if err != nil {
			t.Fatal(err)
		}
		for p, pi := range ports {
			if pi.Kind != HostPort {
				continue
			}
			if pi.Host < 0 || pi.Host >= x.Hosts || seen[pi.Host] {
				t.Fatalf("host %d invalid or duplicated", pi.Host)
			}
			seen[pi.Host] = true
			leaf, port := x.HostLeaf(pi.Host)
			if leaf != id || port != p {
				t.Fatalf("HostLeaf(%d) = %v:%d, wired at %v:%d", pi.Host, leaf, port, id, p)
			}
		}
	}
	for h, ok := range seen {
		if !ok {
			t.Fatalf("host %d not wired", h)
		}
	}
}

func TestXGFTHostsCovered(t *testing.T) {
	x, err := NewXGFT(300, 8, 0) // partial population of a 4-level tree
	if err != nil {
		t.Fatal(err)
	}
	checkHostsCovered(t, x)
}

// routeReaches walks the route from src's leaf hop by hop through the
// wiring and reports whether it ends at dst within the stage bound.
func routeReaches(x XGFT, src, dst int) bool {
	node, _ := x.HostLeaf(src)
	for hop := 0; hop < x.StageCount(); hop++ {
		out, err := x.Route(node, src, dst)
		if err != nil {
			return false
		}
		ports, err := x.PortMap(node)
		if err != nil {
			return false
		}
		pi := ports[out]
		switch pi.Kind {
		case HostPort:
			return pi.Host == dst
		case UpPort, DownPort:
			node = pi.Peer
		default:
			return false
		}
	}
	return false
}

// TestXGFTRouteReachesDestination walks routes for deep trees;
// TestRouteReachesDestinationProperty covers the default two-level one.
func TestXGFTRouteReachesDestination(t *testing.T) {
	for _, c := range []struct{ hosts, radix, levels int }{
		{512, 16, 3},
		{512, 8, 5},
	} {
		x, err := NewXGFT(c.hosts, c.radix, c.levels)
		if err != nil {
			t.Fatal(err)
		}
		f := func(sRaw, dRaw uint16) bool {
			src := int(sRaw) % c.hosts
			dst := int(dRaw) % c.hosts
			return src == dst || routeReaches(x, src, dst)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Errorf("%d-level: %v", c.levels, err)
		}
	}
}

// The tests below pin the default topology: fabric.New with no Network
// builds NewXGFT(hosts, radix, 0), the smallest XGFT that covers the
// hosts.

func defaultXGFT(t *testing.T, hosts, radix int) XGFT {
	t.Helper()
	x, err := NewXGFT(hosts, radix, 0)
	if err != nil {
		t.Fatalf("%d hosts on radix %d: %v", hosts, radix, err)
	}
	return x
}

func TestTopologySizing(t *testing.T) {
	// The paper's flagship: 2048 ports from 64-port switches in a
	// two-level (three-stage) fat tree.
	x := defaultXGFT(t, 2048, 64)
	if x.Levels != 2 || x.StageCount() != 3 {
		t.Errorf("levels %d stages %d", x.Levels, x.StageCount())
	}
	perLevel := make([]int, x.Levels)
	for _, id := range x.NodeIDs() {
		perLevel[id.Level]++
	}
	if perLevel[0] != 64 || perLevel[1] != 32 {
		t.Errorf("leaves %d spines %d", perLevel[0], perLevel[1])
	}
	if n := len(x.NodeIDs()); n != 96 {
		t.Errorf("switches %d", n)
	}
}

func TestTopologySingleSwitch(t *testing.T) {
	x := defaultXGFT(t, 48, 64)
	if x.Levels != 1 || x.StageCount() != 1 || len(x.NodeIDs()) != 1 {
		t.Errorf("%+v", x)
	}
	leaf, port := x.HostLeaf(17)
	if leaf != (NodeID{Level: 0, Index: 0}) || port != 17 {
		t.Errorf("HostLeaf(17) = %v,%d", leaf, port)
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewXGFT(100, 7, 0); err == nil {
		t.Error("odd radix accepted")
	}
	if _, err := NewXGFT(0, 8, 0); err == nil {
		t.Error("zero hosts accepted")
	}
	// The default grows a deeper tree past radix²/2 hosts; an explicit
	// two-level tree must refuse them.
	if _, err := NewXGFT(64*33, 64, 2); err == nil {
		t.Error("over-capacity two-level fabric accepted")
	}
}

func TestHostAddressingRoundTripProperty(t *testing.T) {
	x := defaultXGFT(t, 2048, 64)
	f := func(hRaw uint16) bool {
		h := int(hRaw) % 2048
		leaf, port := x.HostLeaf(h)
		ports, err := x.PortMap(leaf)
		return err == nil && port < len(ports) &&
			ports[port].Kind == HostPort && ports[port].Host == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPortMapWiringIsConsistent(t *testing.T) {
	checkWiringSymmetric(t, defaultXGFT(t, 128, 16))
}

func TestPortMapHostsCoverAllHosts(t *testing.T) {
	// A partial last leaf, with the empty leaves after it kept.
	checkHostsCovered(t, defaultXGFT(t, 100, 16))
}

func TestRouteReachesDestinationProperty(t *testing.T) {
	x := defaultXGFT(t, 2048, 64)
	f := func(sRaw, dRaw uint16) bool {
		src := int(sRaw) % 2048
		dst := int(dRaw) % 2048
		return src == dst || routeReaches(x, src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRouteStablePerFlow(t *testing.T) {
	// Order preservation requires a deterministic path per (src,dst).
	x := defaultXGFT(t, 2048, 64)
	leaf, _ := x.HostLeaf(17)
	first, err := x.Route(leaf, 17, 900)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		if out, _ := x.Route(leaf, 17, 900); out != first {
			t.Fatalf("flow 17->900 routed to up-ports %d and %d", first, out)
		}
	}
}

func TestUpPathSpreadsFlows(t *testing.T) {
	x := defaultXGFT(t, 2048, 64)
	a := x.Radix / 2
	counts := make([]int, a)
	for src := 0; src < 256; src++ {
		leaf, _ := x.HostLeaf(src)
		for dst := 1024; dst < 1064; dst++ {
			out, err := x.Route(leaf, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if out < a {
				t.Fatalf("flow %d->%d leaves on down-port %d", src, dst, out)
			}
			counts[out-a]++
		}
	}
	want := float64(256*40) / float64(a)
	for s, c := range counts {
		if float64(c) < want*0.7 || float64(c) > want*1.3 {
			t.Errorf("spine %d carries %d flows, want ~%.0f", s, c, want)
		}
	}
}

func TestRouteValidation(t *testing.T) {
	x := defaultXGFT(t, 2048, 64)
	if _, err := x.Route(NodeID{Level: 0, Index: 0}, 0, 4000); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := x.PortMap(NodeID{Level: 7, Index: 0}); err == nil {
		t.Error("bogus node accepted")
	}
	if _, err := x.PortMap(NodeID{Level: 1, Index: 99}); err == nil {
		t.Error("bogus spine accepted")
	}
}

func TestNodeIDString(t *testing.T) {
	if (NodeID{Level: 0, Index: 3}).String() != "leaf3" {
		t.Error("leaf name")
	}
	if (NodeID{Level: 1, Index: 7}).String() != "spine7" {
		t.Error("spine name")
	}
}

// TestXGFTFiveStageFabricRuns simulates a full 5-stage (3-level) fabric
// — the §VI.C high-end-electronic shape — end to end: lossless, ordered,
// with 1/3/5-hop path populations.
func TestXGFTFiveStageFabricRuns(t *testing.T) {
	x, err := NewXGFT(128, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Network:        x,
		Receivers:      2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: 128, Load: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run(gens, 0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if m.OrderViolations != 0 || m.Dropped != 0 {
		t.Errorf("5-stage: violations=%d drops=%d", m.OrderViolations, m.Dropped)
	}
	drained, err := f.Drain(200000)
	if err != nil || !drained {
		t.Fatalf("5-stage fabric failed to drain: %v", err)
	}
	if m.Delivered != m.Offered {
		t.Errorf("offered %d delivered %d", m.Offered, m.Delivered)
	}
	for h := range m.HopHistogram {
		if h != 1 && h != 3 && h != 5 {
			t.Errorf("invalid hop count %d in a 3-level fat tree", h)
		}
	}
	if m.HopHistogram[5] == 0 {
		t.Error("no 5-hop paths exercised")
	}
}

// TestXGFTDeepFabricLatencyOrdering verifies the §VI.C consequence the
// paper draws: more stages = more latency, at matched load and cables.
func TestXGFTDeepFabricLatencyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	latency := map[int]float64{}
	for _, levels := range []int{2, 3} {
		x, err := NewXGFT(128, 8, levels)
		if err != nil {
			// 128 hosts on radix-8 need >= 3 levels; skip infeasible.
			if levels == 2 {
				x, err = NewXGFT(32, 8, 2)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				t.Fatal(err)
			}
		}
		f, err := New(Config{
			Network:        x,
			Receivers:      2,
			NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
			LinkDelaySlots: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: x.Hosts, Load: 0.4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Run(gens, 500, 3000)
		if err != nil {
			t.Fatal(err)
		}
		latency[levels] = float64(m.LatencySlots.Mean())
	}
	if latency[3] <= latency[2] {
		t.Errorf("5-stage fabric (%.1f slots) should exceed 3-stage (%.1f slots)",
			latency[3], latency[2])
	}
}
