// Package power models the energy argument of the paper (§I, §VII): a
// CMOS packet switch burns power proportional to its clock — i.e. data —
// rate, while an SOA-based optical switch burns a static bias that is
// independent of the data rate plus a control term proportional only to
// the *packet* rate. At HPC port speeds the optical fabric's power
// advantage, together with saved OEO conversion layers, is what the
// paper argues will drive adoption.
package power

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// CMOSSwitch is an electronic single-stage switch chip(set).
type CMOSSwitch struct {
	// Radix is the port count of the switch.
	Radix int
	// PortRate is the line rate per port.
	PortRate units.Bandwidth
	// StaticW is the rate-independent power floor (SerDes bias, leakage).
	StaticW float64
	// WattsPerGbps is the dynamic power slope: CMOS switching energy is
	// burned per bit moved, so power grows with the aggregate data rate.
	WattsPerGbps float64
}

// DefaultCMOS returns parameters representative of a 2005 high-end
// electronic switch ASIC (ref [13]: a 4 Tb/s class packet switch).
func DefaultCMOS(radix int, rate units.Bandwidth) CMOSSwitch {
	return CMOSSwitch{Radix: radix, PortRate: rate, StaticW: 30, WattsPerGbps: 0.25}
}

// Aggregate reports the switch's total data bandwidth.
func (c CMOSSwitch) Aggregate() units.Bandwidth {
	return units.Bandwidth(float64(c.PortRate) * float64(c.Radix))
}

// Power reports the electrical power (W) at full load.
func (c CMOSSwitch) Power() float64 {
	return c.StaticW + c.WattsPerGbps*c.Aggregate().GbPerSecond()
}

// OpticalSwitch is an SOA broadcast-and-select single-stage switch.
type OpticalSwitch struct {
	// Ports and Radix alias each other for symmetry with CMOSSwitch.
	Ports int
	// SOACount is the gate population (demonstrator: 128 modules x 16).
	SOACount int
	// SOABiasW is the static electrical power per gate.
	SOABiasW float64
	// DutyFactor is the fraction of gates biased on at a time (one
	// fiber + one color gate of each module's 16).
	DutyFactor float64
	// AmplifierW is the broadcast-module amplifier power, total.
	AmplifierW float64
	// ControlWPerMpps is the scheduler/driver power per million
	// reconfigurations per second — the only rate-dependent term, and it
	// scales with the packet rate, not the data rate.
	ControlWPerMpps float64
}

// DefaultOptical returns demonstrator-representative parameters for an
// n-port switch with r receivers per port and c colors per fiber. The
// port rate is ignored: no term of the optical power depends on it.
func DefaultOptical(n, r, c int, _ units.Bandwidth) OpticalSwitch {
	if c <= 0 {
		c = 8
	}
	fibers := (n + c - 1) / c
	modules := n * r
	return OpticalSwitch{
		Ports:           n,
		SOACount:        modules * (fibers + c),
		SOABiasW:        0.5,
		DutyFactor:      2.0 / float64(fibers+c),
		AmplifierW:      8 * float64(fibers),
		ControlWPerMpps: 0.02, // ~20 nJ per reconfiguration, ASIC-class control
	}
}

// Power reports electrical power (W) at the given packet rate (packets
// per second per port). Data rate does not appear: that is the paper's
// central power claim.
func (o OpticalSwitch) Power(packetsPerSecPerPort float64) float64 {
	bias := float64(o.SOACount) * o.SOABiasW * o.DutyFactor
	ctrl := o.ControlWPerMpps * packetsPerSecPerPort * float64(o.Ports) / 1e6
	return bias + o.AmplifierW + ctrl
}

// Transceiver is one OEO conversion point (O/E + E/O pair with SerDes).
type Transceiver struct {
	// WattsPer10G scales transceiver power with line rate.
	WattsPer10G float64
}

// DefaultTransceiver returns a 2005-era optical transceiver estimate.
func DefaultTransceiver() Transceiver { return Transceiver{WattsPer10G: 1.5} }

// Power reports one transceiver's power at the given line rate.
func (t Transceiver) Power(rate units.Bandwidth) float64 {
	return t.WattsPer10G * rate.GbPerSecond() / 10
}

// FabricPlan sizes a multistage folded-Clos (fat-tree) fabric built from
// identical radix-k switches for N end ports — the §VI.C comparison.
type FabricPlan struct {
	// N is the required fabric port count.
	N int
	// PortRate is the per-port line rate.
	PortRate units.Bandwidth
	// Stages = 2*levels - 1 switch traversals on the longest path of
	// the folded fat tree.
	Stages int
	// Switches is the total switch count (unfolded-Clos equivalent:
	// Stages x N/Radix).
	Switches int
	// InterStageLinks counts cables between consecutive stages.
	InterStageLinks int
	// OEOLayers counts opto-electronic conversion layers a packet
	// crosses (one per buffered stage boundary, §VI.C).
	OEOLayers int
}

// PlanFabric computes the minimal folded fat tree. A radix-k switch at
// every level below the top splits ports half down, half up; capacity
// with L levels is k*(k/2)^(L-1).
func PlanFabric(n, radix int, rate units.Bandwidth) (FabricPlan, error) {
	if n <= 0 || radix < 2 {
		return FabricPlan{}, fmt.Errorf("power: invalid plan n=%d radix=%d", n, radix)
	}
	levels := 1
	for capacityAt(levels, radix) < n {
		levels++
		if levels > 16 {
			return FabricPlan{}, fmt.Errorf("power: fabric for n=%d radix=%d needs >16 levels", n, radix)
		}
	}
	stages := 2*levels - 1
	perStage := int(math.Ceil(float64(n) / float64(radix)))
	return FabricPlan{
		N:               n,
		PortRate:        rate,
		Stages:          stages,
		Switches:        stages * perStage,
		InterStageLinks: (stages - 1) * n,
		OEOLayers:       stages,
	}, nil
}

// capacityAt reports the max port count of an L-level tree of radix k.
func capacityAt(levels, radix int) int {
	c := radix
	for i := 1; i < levels; i++ {
		c *= radix / 2
	}
	return c
}

// ElectronicFabricPower reports total fabric power for CMOS switches:
// every stage is an electronic chip plus a layer of OEO transceivers on
// its ports (inter-rack links are optical at these rates).
func (p FabricPlan) ElectronicFabricPower(sw CMOSSwitch, t Transceiver) float64 {
	perSwitch := sw.Power()
	oeo := float64(p.OEOLayers*p.N) * 2 * t.Power(p.PortRate) // O/E + E/O per layer per port-path
	return float64(p.Switches)*perSwitch + oeo
}

// HybridFabricPower reports total power for OSMOSIS-style optical
// stages: optical crossbars (data-rate independent) plus electronic
// buffers needing one OEO layer per stage boundary.
func (p FabricPlan) HybridFabricPower(sw OpticalSwitch, t Transceiver, packetsPerSecPerPort float64) float64 {
	perSwitch := sw.Power(packetsPerSecPerPort)
	nSwitches := float64(p.Stages) * math.Ceil(float64(p.N)/float64(sw.Ports))
	oeo := float64(p.OEOLayers*p.N) * 2 * t.Power(p.PortRate)
	return nSwitches*perSwitch + oeo
}

// Parallel-plane fabrics (§I): electronic switches "organized in
// parallel multistage fabrics can always provide the required bandwidth
// and number of ports" — by striping each fabric port over B planes of
// lower-rate electronic fabric. PlanesFor quantifies the price: plane
// count, total switches, cables, and power all multiply.

// ParallelPlan describes a multi-plane electronic fabric equivalent.
type ParallelPlan struct {
	// Planes is the stripe width needed to reach the port rate.
	Planes int
	// PerPlane is the single-plane fabric plan at the lane rate.
	PerPlane FabricPlan
	// Switches and Cables are fabric-wide totals across planes.
	Switches, Cables int
}

// PlanesFor sizes a parallel-plane electronic fabric: n ports at
// portRate, each striped over planes of laneRate electronic fabric
// built from radix-k switches.
func PlanesFor(n, radix int, portRate, laneRate units.Bandwidth) (ParallelPlan, error) {
	if laneRate <= 0 || portRate <= 0 {
		return ParallelPlan{}, fmt.Errorf("power: rates must be positive")
	}
	planes := int(math.Ceil(float64(portRate) / float64(laneRate)))
	if planes < 1 {
		planes = 1
	}
	per, err := PlanFabric(n, radix, laneRate)
	if err != nil {
		return ParallelPlan{}, err
	}
	return ParallelPlan{
		Planes:   planes,
		PerPlane: per,
		Switches: planes * per.Switches,
		Cables:   planes * per.InterStageLinks,
	}, nil
}

// Power reports the total electrical power of all planes.
func (p ParallelPlan) Power(sw CMOSSwitch, t Transceiver) float64 {
	return float64(p.Planes) * p.PerPlane.ElectronicFabricPower(sw, t)
}
