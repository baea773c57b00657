package optics

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Modulation formats compared in §VII / Fig. 10.
type Modulation uint8

// Formats.
const (
	// NRZ is intensity (on/off) modulation: the power envelope carries
	// the data, so deep SOA saturation converts gain compression into
	// pattern-dependent distortion (cross-gain modulation, XGM).
	NRZ Modulation = iota
	// DPSK carries data in the optical phase with a constant power
	// envelope, so the SOA sees no fast power transients and can run
	// deeply saturated.
	DPSK
)

// String names the format.
func (m Modulation) String() string {
	switch m {
	case NRZ:
		return "NRZ"
	case DPSK:
		return "DPSK"
	default:
		return fmt.Sprintf("Modulation(%d)", uint8(m))
	}
}

// XGMModel produces the OSNR-penalty-versus-SOA-input-power curves of
// Fig. 10. The shape follows gain-compression physics: the penalty is
// negligible while the per-channel input power sits below the format's
// effective saturation threshold, then grows steeply (exponentially in
// dB-space) as the SOA is driven into compression. DPSK's constant
// envelope shifts that threshold up by ~14 dB (the paper's measured
// improvement in input loading at 1 dB penalty) and additionally
// tolerates ~3 dB lower OSNR at any BER.
type XGMModel struct {
	// Loading1dB[f][b] is the SOA input power (dBm) at which the OSNR
	// penalty reaches 1 dB for format f at BER target b (index: 0 =
	// 1e-6, 1 = 1e-10). Calibrated to the paper's measurement.
	loading1dB map[Modulation][2]units.DBm
	// SlopeDB is the input-power increase that multiplies the penalty
	// tenfold (sets the knee sharpness).
	SlopeDB float64
	// FloorDB is the residual penalty far below saturation.
	FloorDB float64
}

// BERTarget indexes the two bit-error-rate curves of Fig. 10.
type BERTarget int

// Fig. 10 BER targets.
const (
	BER1e6 BERTarget = iota
	BER1e10
)

// String names the target.
func (b BERTarget) String() string {
	if b == BER1e10 {
		return "1e-10"
	}
	return "1e-6"
}

// NewXGMModel returns the model calibrated to the paper: DPSK achieves a
// 14 dB input-loading improvement over NRZ at the 1 dB penalty point,
// and the tighter 1e-10 BER target costs ~2 dB of loading at either
// format.
func NewXGMModel() *XGMModel {
	return &XGMModel{
		loading1dB: map[Modulation][2]units.DBm{
			NRZ:  {2, 0},   // 1e-6, 1e-10
			DPSK: {16, 14}, // 14 dB above NRZ at matching BER
		},
		SlopeDB: 5,
		FloorDB: 0.05,
	}
}

// Loading1dB reports the calibrated 1 dB-penalty input power.
func (m *XGMModel) Loading1dB(f Modulation, b BERTarget) units.DBm {
	return m.loading1dB[f][int(b)]
}

// Penalty reports the OSNR penalty (dB) at SOA input power pin for the
// given format and BER target.
func (m *XGMModel) Penalty(f Modulation, b BERTarget, pin units.DBm) units.DB {
	p1 := float64(m.Loading1dB(f, b))
	pen := math.Pow(10, (float64(pin)-p1)/m.SlopeDB) // 1 dB at p1, x10 per slope
	return units.DB(pen + m.FloorDB)
}

// LoadingAtPenalty inverts Penalty: the input power producing a given
// penalty.
func (m *XGMModel) LoadingAtPenalty(f Modulation, b BERTarget, penalty units.DB) units.DBm {
	p := float64(penalty) - m.FloorDB
	if p <= 0 {
		return units.DBm(math.Inf(-1))
	}
	p1 := float64(m.Loading1dB(f, b))
	return units.DBm(p1 + m.SlopeDB*math.Log10(p))
}

// DPSKImprovement reports the input-loading gain of DPSK over NRZ at a
// given penalty and BER — the paper's headline 14 dB at 1 dB penalty.
func (m *XGMModel) DPSKImprovement(b BERTarget, penalty units.DB) units.DB {
	return units.DB(float64(m.LoadingAtPenalty(DPSK, b, penalty)) -
		float64(m.LoadingAtPenalty(NRZ, b, penalty)))
}

// OSNRMarginDPSK is the separate measurement in §VII: an SOA-switched
// DPSK link operates with ~3 dB lower OSNR than NRZ at any BER (balanced
// detection gain).
const OSNRMarginDPSK units.DB = 3

// RequiredOSNR reports the OSNR (dB, 0.1 nm reference bandwidth) needed
// to reach a BER for each format at 40 Gb/s, using the standard
// Q-factor mapping BER = 0.5 erfc(Q/sqrt2) and an NRZ base calibration
// of 16 dB OSNR for BER 1e-9; DPSK subtracts its 3 dB margin.
func RequiredOSNR(f Modulation, ber float64) units.DB {
	q := QFromBER(ber)
	// OSNR scales as Q^2 in the linear regime.
	base := 16.0 + 20*math.Log10(q/qFromBERConst1e9)
	if f == DPSK {
		base -= float64(OSNRMarginDPSK)
	}
	return units.DB(base)
}

var qFromBERConst1e9 = QFromBER(1e-9)

// QFromBER inverts BER = 0.5 erfc(Q/sqrt2) for Q via bisection.
func QFromBER(ber float64) float64 {
	if ber <= 0 {
		return math.Inf(1)
	}
	if ber >= 0.5 {
		return 0
	}
	lo, hi := 0.0, 20.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if BERFromQ(mid) > ber {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// BERFromQ maps a Q factor to BER.
func BERFromQ(q float64) float64 {
	return 0.5 * math.Erfc(q/math.Sqrt2)
}

// LinkBER estimates the raw BER of an SOA-switched link given the
// delivered OSNR, the XGM penalty at the operating point, and the
// format: effective OSNR = osnr - penalty, then invert the Q mapping.
func LinkBER(f Modulation, osnr units.DB, m *XGMModel, b BERTarget, pin units.DBm) float64 {
	eff := float64(osnr) - float64(m.Penalty(f, b, pin))
	// Q^2 scales linearly with OSNR relative to the calibration point.
	need9 := float64(RequiredOSNR(f, 1e-9))
	q := qFromBERConst1e9 * math.Pow(10, (eff-need9)/20)
	return BERFromQ(q)
}
