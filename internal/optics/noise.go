package optics

import (
	"math"

	"repro/internal/units"
)

// OSNR accumulation along the broadcast-and-select path: every active
// gain element (the broadcast EDFA and the two SOA gate stages) adds
// amplified-spontaneous-emission noise set by its noise figure and the
// signal power at its input. The result closes the loop between the
// power budget (bselect.go), the modulation study (osnr.go), and the
// FEC error budget (internal/fec): PathOSNR -> LinkBER -> raw BER tier.
//
// The model uses the standard per-stage OSNR contribution in a 0.1 nm
// (12.5 GHz) reference bandwidth at 1550 nm:
//
//	OSNR_stage(dB) = P_in(dBm) - NF(dB) + 58
//
// and combines stages as parallel noise sources:
//
//	1/OSNR_total = sum 1/OSNR_stage   (linear).
const osnrConst = 58.0

// stageNoise describes one active element for the OSNR walk.
type stageNoise struct {
	in units.DBm
	nf units.DB
}

// PathOSNR walks the amplifier chain of the in -> module path and
// reports the delivered OSNR (dB/0.1 nm) at the receiver.
func (xb *Crossbar) PathOSNR(in, m int) (units.DB, error) {
	b, err := xb.PathBudget(in, m)
	if err != nil {
		return 0, err
	}
	p := xb.P
	// Reconstruct input powers of the active elements from the budget
	// stages: "amplifier", "fiber-select-soa", "color-select-soa". The
	// input of a stage is the power after the previous stage (or launch).
	var stages []stageNoise
	prev := p.LaunchPower
	for _, st := range b.Stages {
		switch st.Name {
		case "amplifier":
			stages = append(stages, stageNoise{prev, p.AmpNoiseFigure})
		case "fiber-select-soa", "color-select-soa":
			stages = append(stages, stageNoise{prev, p.Soa.NoiseFigure})
		}
		prev = st.Power
	}
	invTotal := 0.0
	for _, s := range stages {
		osnrDB := float64(s.in) - float64(s.nf) + osnrConst
		invTotal += math.Pow(10, -osnrDB/10)
	}
	if invTotal == 0 {
		return units.DB(math.Inf(1)), nil
	}
	return units.DB(-10 * math.Log10(invTotal)), nil
}

// WorstPathOSNR scans every (input, module) pair.
func (xb *Crossbar) WorstPathOSNR() (units.DB, error) {
	worst := units.DB(math.Inf(1))
	for in := 0; in < xb.P.Ports; in++ {
		for m := 0; m < len(xb.modules); m++ {
			o, err := xb.PathOSNR(in, m)
			if err != nil {
				return 0, err
			}
			if o < worst {
				worst = o
			}
		}
	}
	return worst, nil
}

// ImplementationPenalty lumps the eye-closure impairments the ASE walk
// does not model — finite extinction, chirp and filtering, receiver
// dynamic-range limits (§IV.C: "the lower dynamic range of optics as
// compared to copper") — calibrated so the demonstrator's worst path
// lands in the paper's quoted raw-BER range of 1e-10 to 1e-12.
const ImplementationPenalty units.DB = 11

// RawBER closes the physical-layer loop: the worst-path OSNR combined
// with gate crosstalk, degraded by the implementation penalty and the
// XGM penalty at the configured per-channel SOA loading, mapped through
// the Q-factor model to the link's raw bit-error rate — the number the
// FEC tier consumes.
func (xb *Crossbar) RawBER(f Modulation, model *XGMModel, berTarget BERTarget) (float64, error) {
	osnr, err := xb.WorstPathOSNR()
	if err != nil {
		return 0, err
	}
	// Per-channel SOA input loading: the power entering the first SOA
	// stage (after the star coupler) on the worst path; crosstalk from
	// the same budget acts as an additional noise floor.
	b, err := xb.PathBudget(0, 0)
	if err != nil {
		return 0, err
	}
	var soaIn units.DBm
	prev := xb.P.LaunchPower
	for _, st := range b.Stages {
		if st.Name == "fiber-select-soa" {
			soaIn = prev
			break
		}
		prev = st.Power
	}
	// Combine ASE OSNR with signal-to-crosstalk as parallel noise, then
	// charge the implementation penalty.
	inv := math.Pow(10, -float64(osnr)/10)
	if sx := float64(b.SignalToCrosstalk); !math.IsInf(sx, 1) {
		inv += math.Pow(10, -sx/10)
	}
	eff := units.DB(-10*math.Log10(inv)) - ImplementationPenalty
	return LinkBER(f, eff, model, berTarget, soaIn), nil
}
