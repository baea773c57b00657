package experiments

import (
	"fmt"

	"repro/internal/fec"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runAblationInterleave measures how many FEC blocks survive wire
// bursts of increasing length as the interleaving depth grows: a depth-D
// interleaver spreads a D-symbol burst across D blocks (one symbol
// each), keeping every block inside the code's single-error correction
// power. Bursts longer than the depth overwhelm it.
func runAblationInterleave(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ablation-interleave", Title: "FEC interleaving depth vs burst survival"}
	rng := sim.NewRNG(cfg.seed())

	const groupBlocks = 8 // codec payload: 8 blocks = 256 B of user data
	trials := 400
	if cfg.Quick {
		trials = 80
	}

	tb := stats.NewTable("Fraction of bursts fully corrected (8-block frames)", "burst_symbols")
	depths := []int{1, 2, 4, 8}
	series := map[int]*stats.Series{}
	for _, d := range depths {
		series[d] = tb.AddSeries(fmt.Sprintf("interleave-%d", d))
	}

	payload := make([]byte, groupBlocks*fec.DataSymbols)
	for _, burst := range []int{1, 2, 4, 8, 16} {
		for _, depth := range depths {
			cd := link.Codec{Interleave: depth}
			survived := 0
			for tr := 0; tr < trials; tr++ {
				for i := range payload {
					payload[i] = byte(rng.Uint64())
				}
				wire, err := cd.Encode(payload)
				if err != nil {
					return nil, err
				}
				// One contiguous burst: a single bit flip in each of
				// `burst` consecutive wire symbols.
				start := int(rng.Uint64() % uint64(len(wire)-burst))
				for off := 0; off < burst; off++ {
					wire[start+off] ^= 1 << (rng.Uint64() % 8)
				}
				dec, err := cd.Decode(wire)
				if err != nil {
					return nil, err
				}
				if dec.Detected == 0 {
					survived++
				}
			}
			series[depth].Add(float64(burst), float64(survived)/float64(trials))
		}
	}
	res.Tables = append(res.Tables, tb)

	res.AddFinding("depth-D survives D-symbol bursts",
		"interleaving spreads bursts across blocks, keeping each correctable",
		fmt.Sprintf("4-symbol bursts: depth 1 survives %.0f%%, depth 4 survives %.0f%%",
			series[1].YAt(4)*100, series[4].YAt(4)*100),
		series[4].YAt(4) > 0.99 && series[1].YAt(4) < 0.7)
	res.AddFinding("deeper is strictly better at long bursts",
		"burst tolerance scales with depth",
		fmt.Sprintf("8-symbol bursts: depth 2 %.0f%%, depth 8 %.0f%%",
			series[2].YAt(8)*100, series[8].YAt(8)*100),
		series[8].YAt(8) > series[2].YAt(8))
	res.AddFinding("no free lunch",
		"bursts beyond the interleaving depth defeat it",
		fmt.Sprintf("16-symbol bursts at depth 8: %.0f%% survive", series[8].YAt(16)*100),
		series[8].YAt(16) < 0.999)
	return res, nil
}
