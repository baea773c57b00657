package optics

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Params collects the component-level constants of the broadcast-and-
// select data path. All losses are negative dB; gains positive.
type Params struct {
	// Ports is the port count; Colors the WDM channel count per fiber.
	// Fibers = Ports / Colors. The demonstrator: 64 ports, 8 colors,
	// 8 fibers.
	Ports, Colors int
	// ReceiversPerPort selects single (1) or dual (2) receivers; the
	// switching-module count is Ports * ReceiversPerPort.
	ReceiversPerPort int

	// LaunchPower is the transmitter output per channel.
	LaunchPower units.DBm
	// MuxLoss is the 8:1 WDM multiplexer insertion loss.
	MuxLoss units.DB
	// AmpGain is the broadcast-module optical amplifier gain.
	AmpGain units.DB
	// AmpNoiseFigure degrades OSNR at the amplifier.
	AmpNoiseFigure units.DB
	// ExcessSplitLoss is added to the ideal 1:N star-coupler loss.
	ExcessSplitLoss units.DB
	// CombinerLoss is the 8:1 passive combiner after the fiber gates.
	CombinerLoss units.DB
	// DemuxLoss is the 1:8 wavelength demultiplexer loss.
	DemuxLoss units.DB
	// RemuxLoss is the 8:1 recombiner after the color gates.
	RemuxLoss units.DB
	// Soa is the gate prototype used for both selector stages.
	Soa SOA
	// RxSensitivity is the receiver sensitivity at the line rate
	// (minimum average power for the target raw BER).
	RxSensitivity units.DBm
	// RxOverload is the maximum receiver input power.
	RxOverload units.DBm
}

// DemonstratorParams returns the 64-port OSMOSIS configuration with a
// closed power budget (§VI.A "closed the optical power ... budgets").
func DemonstratorParams() Params {
	return Params{
		Ports:            64,
		Colors:           8,
		ReceiversPerPort: 2,
		LaunchPower:      3,
		MuxLoss:          -3.5,
		AmpGain:          20,
		AmpNoiseFigure:   5,
		ExcessSplitLoss:  -2,
		CombinerLoss:     -10.5,
		DemuxLoss:        -4,
		RemuxLoss:        -10.5,
		Soa:              DefaultSOA(),
		RxSensitivity:    -8,
		RxOverload:       3,
	}
}

// Fibers reports the broadcast-fiber count.
func (p Params) Fibers() int {
	if p.Colors == 0 {
		return 0
	}
	return p.Ports / p.Colors
}

// Validate checks structural consistency.
func (p Params) Validate() error {
	if p.Ports <= 0 || p.Colors <= 0 {
		return fmt.Errorf("optics: ports %d and colors %d must be positive", p.Ports, p.Colors)
	}
	if p.Ports%p.Colors != 0 {
		return fmt.Errorf("optics: ports %d not divisible by colors %d", p.Ports, p.Colors)
	}
	if p.ReceiversPerPort < 1 {
		return fmt.Errorf("optics: receivers per port %d < 1", p.ReceiversPerPort)
	}
	return nil
}

// PortAddress maps an ingress port to its (fiber, color) pair: eight
// ingress adapters share a fiber, each on its own WDM color.
func (p Params) PortAddress(port int) (fiber, color int) {
	return port / p.Colors, port % p.Colors
}

// Crossbar is the structural model of the broadcast-and-select fabric:
// per switching module, one fiber-select SOA array and one color-select
// SOA array. Configuring module m for input port i turns on exactly one
// gate in each array.
type Crossbar struct {
	P Params
	// modules[m] is the gate state of switching module m; egress e owns
	// modules e*R .. e*R+R-1.
	modules []module
	// switchEvents counts SOA state changes (for control power).
	switchEvents uint64
}

type module struct {
	fiberGate []SOA
	colorGate []SOA
	input     int // currently selected ingress port, -1 when dark
}

// NewCrossbar builds the gate fabric for the given parameters.
func NewCrossbar(p Params) (*Crossbar, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nm := p.Ports * p.ReceiversPerPort
	xb := &Crossbar{P: p, modules: make([]module, nm)}
	for m := range xb.modules {
		fg := make([]SOA, p.Fibers())
		cg := make([]SOA, p.Colors)
		for i := range fg {
			fg[i] = p.Soa
		}
		for i := range cg {
			cg[i] = p.Soa
		}
		xb.modules[m] = module{fiberGate: fg, colorGate: cg, input: -1}
	}
	return xb, nil
}

// Modules reports the switching-module count (128 in the demonstrator).
func (xb *Crossbar) Modules() int { return len(xb.modules) }

// SOACount reports the total SOA gate count in the fabric.
func (xb *Crossbar) SOACount() int {
	return len(xb.modules) * (xb.P.Fibers() + xb.P.Colors)
}

// ModuleOf returns the module index of egress port e, receiver r.
func (xb *Crossbar) ModuleOf(egress, receiver int) int {
	return egress*xb.P.ReceiversPerPort + receiver
}

// Configure points module m at ingress port in (-1 = dark), switching
// its gates; it returns the guard time implied by the state changes.
func (xb *Crossbar) Configure(m, in int) (units.Time, error) {
	if m < 0 || m >= len(xb.modules) {
		return 0, fmt.Errorf("optics: module %d out of range [0,%d)", m, len(xb.modules))
	}
	if in < -1 || in >= xb.P.Ports {
		return 0, fmt.Errorf("optics: input %d out of range [-1,%d)", in, xb.P.Ports)
	}
	mod := &xb.modules[m]
	if mod.input == in {
		return 0, nil
	}
	wantFiber, wantColor := -1, -1
	if in >= 0 {
		wantFiber, wantColor = xb.P.PortAddress(in)
	}
	var guard units.Time
	for f := range mod.fiberGate {
		if g := mod.fiberGate[f].Set(f == wantFiber); g > guard {
			guard = g
		}
	}
	for c := range mod.colorGate {
		if g := mod.colorGate[c].Set(c == wantColor); g > guard {
			guard = g
		}
	}
	if mod.input >= 0 || in >= 0 {
		xb.switchEvents++
	}
	mod.input = in
	return guard, nil
}

// SelectedInput reports which ingress port module m is commanded to
// pass, -1 if dark. A gate fault can make the optical reality differ —
// see EffectiveInput.
func (xb *Crossbar) SelectedInput(m int) int { return xb.modules[m].input }

// SetGateFault wedges fiber-select gate g of module m in the given
// mode (Healthy clears it). Stuck gates ignore reconfiguration until
// cleared; the commanded pattern is preserved throughout.
func (xb *Crossbar) SetGateFault(m, gate int, mode StuckMode) error {
	if m < 0 || m >= len(xb.modules) {
		return fmt.Errorf("optics: module %d out of range [0,%d)", m, len(xb.modules))
	}
	fg := xb.modules[m].fiberGate
	if gate < 0 || gate >= len(fg) {
		return fmt.Errorf("optics: fiber gate %d out of range [0,%d)", gate, len(fg))
	}
	fg[gate].ForceStuck(mode)
	return nil
}

// EffectiveInput reports the ingress port whose light actually reaches
// module m's output: the commanded input if its fiber and color gates
// both pass, -1 when the selected path is dark (e.g. a stuck-off gate
// severed it). This is what a BIST power monitor at the module output
// observes, versus SelectedInput which is what the control plane
// commanded — the §VI.A self-test compares the two.
func (xb *Crossbar) EffectiveInput(m int) int {
	mod := &xb.modules[m]
	if mod.input < 0 {
		return -1
	}
	fiber, color := xb.P.PortAddress(mod.input)
	if !mod.fiberGate[fiber].Passing() || !mod.colorGate[color].Passing() {
		return -1
	}
	return mod.input
}

// ModuleLeaks reports whether any gate of module m passes light it was
// not commanded to pass — the selectivity loss a stuck-on gate causes,
// observable as anomalous crosstalk at the module output.
func (xb *Crossbar) ModuleLeaks(m int) bool {
	mod := &xb.modules[m]
	for i := range mod.fiberGate {
		if mod.fiberGate[i].Passing() && !mod.fiberGate[i].On() {
			return true
		}
	}
	for i := range mod.colorGate {
		if mod.colorGate[i].Passing() && !mod.colorGate[i].On() {
			return true
		}
	}
	return false
}

// GateFaults reports the number of wedged gates across the fabric.
func (xb *Crossbar) GateFaults() int {
	n := 0
	for m := range xb.modules {
		mod := &xb.modules[m]
		for i := range mod.fiberGate {
			if mod.fiberGate[i].Stuck() != Healthy {
				n++
			}
		}
		for i := range mod.colorGate {
			if mod.colorGate[i].Stuck() != Healthy {
				n++
			}
		}
	}
	return n
}

// SwitchEvents reports the cumulative SOA reconfiguration count.
func (xb *Crossbar) SwitchEvents() uint64 { return xb.switchEvents }

// Budget is the power accounting of one ingress-to-egress path.
type Budget struct {
	Stages []BudgetStage
	// Receive is the power at the receiver.
	Receive units.DBm
	// Margin is Receive minus sensitivity (positive = feasible).
	Margin units.DB
	// Crosstalk is the total leaked power from all other inputs.
	Crosstalk units.DBm
	// SignalToCrosstalk is the signal-to-crosstalk ratio.
	SignalToCrosstalk units.DB
}

// BudgetStage is one gain/loss element on the path.
type BudgetStage struct {
	Name  string
	Delta units.DB
	Power units.DBm // power after this stage
}

// PathBudget walks the full data path for one ingress port through one
// switching module, assuming the module is configured for that input.
func (xb *Crossbar) PathBudget(in, m int) (Budget, error) {
	if in < 0 || in >= xb.P.Ports {
		return Budget{}, fmt.Errorf("optics: input %d out of range", in)
	}
	if m < 0 || m >= len(xb.modules) {
		return Budget{}, fmt.Errorf("optics: module %d out of range", m)
	}
	p := xb.P
	// Each broadcast fiber is split to every switching module (128 ways
	// in the demonstrator: "each of these eight fibers is optically
	// split 128 ways", §V).
	splitLoss := units.SplitLoss(p.Ports*p.ReceiversPerPort) + p.ExcessSplitLoss

	var b Budget
	power := p.LaunchPower
	add := func(name string, d units.DB) {
		power = power.Add(d)
		b.Stages = append(b.Stages, BudgetStage{Name: name, Delta: d, Power: power})
	}
	add("wdm-mux", p.MuxLoss)
	add("amplifier", p.AmpGain)
	add("star-coupler", splitLoss)
	add("fiber-select-soa", p.Soa.Gain)
	add("fiber-combiner", p.CombinerLoss)
	add("wavelength-demux", p.DemuxLoss)
	add("color-select-soa", p.Soa.Gain)
	add("color-remux", p.RemuxLoss)
	b.Receive = power
	b.Margin = power.Sub(p.RxSensitivity)

	// Crosstalk: the 7 same-fiber colors leak through the off color
	// gates; the 7 other fibers leak through the off fiber gates (then
	// one color of each passes the on color gate). Off-gates attenuate
	// by gain+extinction.
	leakPerOffColor := b.Receive.Add(xb.P.Soa.Extinction)
	leakPerOffFiber := b.Receive.Add(xb.P.Soa.Extinction)
	nColorLeaks := float64(p.Colors - 1)
	nFiberLeaks := float64(p.Fibers() - 1)
	totalMw := nColorLeaks*leakPerOffColor.Milliwatts() + nFiberLeaks*leakPerOffFiber.Milliwatts()
	if totalMw > 0 {
		b.Crosstalk = units.MilliwattsToDBm(totalMw)
		b.SignalToCrosstalk = b.Receive.Sub(b.Crosstalk)
	} else {
		b.Crosstalk = units.DBm(math.Inf(-1))
		b.SignalToCrosstalk = units.DB(math.Inf(1))
	}
	return b, nil
}

// VerifyAllPaths checks the power budget of every (input, module) pair
// and returns the worst margin; a fabric "closes its power budget" when
// the worst margin is positive and every receive power is below the
// overload point.
func (xb *Crossbar) VerifyAllPaths() (worst units.DB, err error) {
	worst = units.DB(math.Inf(1))
	for in := 0; in < xb.P.Ports; in++ {
		for m := 0; m < len(xb.modules); m++ {
			b, e := xb.PathBudget(in, m)
			if e != nil {
				return 0, e
			}
			if b.Margin < worst {
				worst = b.Margin
			}
			if b.Receive > xb.P.RxOverload {
				return worst, fmt.Errorf("optics: path in=%d module=%d receives %v dBm above overload %v",
					in, m, float64(b.Receive), float64(xb.P.RxOverload))
			}
		}
	}
	if worst < 0 {
		return worst, fmt.Errorf("optics: power budget does not close: worst margin %.2f dB", float64(worst))
	}
	return worst, nil
}
