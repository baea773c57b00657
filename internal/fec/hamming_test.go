package fec

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func randomData(rng *sim.RNG) []byte {
	d := make([]byte, DataSymbols)
	for i := range d {
		d[i] = byte(rng.Uint64())
	}
	return d
}

func TestCodeGeometry(t *testing.T) {
	if BlockBits != 272 || DataBits != 256 {
		t.Errorf("code is (%d,%d), paper wants (272,256)", BlockBits, DataBits)
	}
	if Overhead != 0.0625 {
		t.Errorf("overhead %v, paper quotes 6.25%%", Overhead)
	}
}

func TestEncodeRejectsBadSize(t *testing.T) {
	if _, err := Encode(make([]byte, 31)); err == nil {
		t.Error("short payload accepted")
	}
	if _, _, err := Decode(make([]byte, 33)); err == nil {
		t.Error("short block accepted")
	}
	if _, _, err := Syndrome(make([]byte, 35)); err == nil {
		t.Error("long block accepted")
	}
}

func TestEncodeDecodeClean(t *testing.T) {
	rng := sim.NewRNG(1)
	for trial := 0; trial < 200; trial++ {
		data := randomData(rng)
		block, err := Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(block) != BlockSymbols {
			t.Fatalf("block length %d", len(block))
		}
		got, status, err := Decode(block)
		if err != nil || status != OK {
			t.Fatalf("clean decode: status %v err %v", status, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("clean decode corrupted data")
		}
	}
}

func TestEncodeDoesNotMutateInput(t *testing.T) {
	data := make([]byte, DataSymbols)
	for i := range data {
		data[i] = byte(i)
	}
	saved := append([]byte(nil), data...)
	if _, err := Encode(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, saved) {
		t.Error("Encode mutated its input")
	}
}

// TestAllSingleBitErrorsCorrected is the paper's headline claim,
// verified exhaustively: every one of the 272 single-bit flips in a
// block is corrected.
func TestAllSingleBitErrorsCorrected(t *testing.T) {
	rng := sim.NewRNG(2)
	data := randomData(rng)
	block, err := Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < BlockBits; bit++ {
		corrupted := append([]byte(nil), block...)
		corrupted[bit/8] ^= 1 << (bit % 8)
		got, status, err := Decode(corrupted)
		if err != nil {
			t.Fatal(err)
		}
		if status != Corrected {
			t.Fatalf("bit %d: status %v, want Corrected", bit, status)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("bit %d: data wrong after correction", bit)
		}
	}
}

// TestAllDoubleBitErrorsDetected is the second claim: every double-bit
// error is detected (never silently miscorrected). Verified exhaustively
// over all C(272,2) = 36 856 bit pairs.
func TestAllDoubleBitErrorsDetected(t *testing.T) {
	rng := sim.NewRNG(3)
	data := randomData(rng)
	block, err := Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for b1 := 0; b1 < BlockBits; b1++ {
		for b2 := b1 + 1; b2 < BlockBits; b2++ {
			corrupted := append([]byte(nil), block...)
			corrupted[b1/8] ^= 1 << (b1 % 8)
			corrupted[b2/8] ^= 1 << (b2 % 8)
			_, status, err := Decode(corrupted)
			if err != nil {
				t.Fatal(err)
			}
			if status == OK {
				t.Fatalf("bits (%d,%d): error invisible", b1, b2)
			}
			if status == Corrected {
				// Correcting is fine only if it repaired both flips,
				// which is impossible for two flips in distinct symbols
				// but legal when both landed in the same symbol? No:
				// weight-2 magnitudes are refused, so Corrected here is
				// always a miscorrection.
				t.Fatalf("bits (%d,%d): double-bit error miscorrected", b1, b2)
			}
		}
	}
}

func TestDoubleBitStatsAgree(t *testing.T) {
	out := DoubleBitStats()
	if out.Patterns != BlockSymbols*(BlockSymbols-1)/2*64 {
		t.Errorf("pattern count %d", out.Patterns)
	}
	if out.Miscorrected != 0 {
		t.Errorf("enumeration found %d miscorrected double-bit patterns, want 0", out.Miscorrected)
	}
	if out.DetectionRate() != 1 {
		t.Errorf("detection rate %v", out.DetectionRate())
	}
}

func TestTripleBitMostlyDetected(t *testing.T) {
	// "detects ... most multi-bit errors" — the sampled triple-bit
	// detection rate should be high but need not be perfect.
	out := TripleBitSampleStats()
	if out.Patterns == 0 {
		t.Fatal("no patterns sampled")
	}
	// Triples where two flips share a bit position alias a weight-1
	// magnitude and can slip through, so the rate is below the
	// double-bit 100% but must stay clearly dominant.
	rate := out.DetectionRate()
	if rate < 0.85 {
		t.Errorf("triple-bit detection rate %.4f, want > 0.85", rate)
	}
	t.Logf("triple-bit detection rate: %.6f over %d patterns", rate, out.Patterns)
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, bitRaw uint16) bool {
		rng := sim.NewRNG(seed)
		data := randomData(rng)
		block, err := Encode(data)
		if err != nil {
			return false
		}
		bit := int(bitRaw) % BlockBits
		block[bit/8] ^= 1 << (bit % 8)
		got, status, err := Decode(block)
		return err == nil && status == Corrected && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInterleaverRoundTripProperty(t *testing.T) {
	f := func(seed uint64, depthRaw uint8) bool {
		depth := int(depthRaw%7) + 1
		iv, err := NewInterleaver(depth)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		blocks := make([]byte, depth*BlockSymbols)
		for i := range blocks {
			blocks[i] = byte(rng.Uint64())
		}
		wire, err := iv.Interleave(blocks)
		if err != nil {
			return false
		}
		back, err := iv.Deinterleave(wire)
		if err != nil {
			return false
		}
		return bytes.Equal(back, blocks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInterleaverSpreadsBursts(t *testing.T) {
	// A burst of `depth` consecutive wire symbols must hit each block at
	// most once and therefore stay correctable everywhere.
	const depth = 4
	iv, err := NewInterleaver(depth)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	datas := make([][]byte, depth)
	coded := make([]byte, 0, depth*BlockSymbols)
	for i := range datas {
		datas[i] = randomData(rng)
		blk, _ := Encode(datas[i])
		coded = append(coded, blk...)
	}
	wire, err := iv.Interleave(coded)
	if err != nil {
		t.Fatal(err)
	}
	// Burst: flip one bit in each of `depth` consecutive wire bytes.
	for off := 0; off < depth; off++ {
		wire[40+off] ^= 0x4
	}
	back, err := iv.Deinterleave(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		got, status, err := Decode(back[i*BlockSymbols : (i+1)*BlockSymbols])
		if err != nil {
			t.Fatal(err)
		}
		if status == Detected {
			t.Fatalf("block %d uncorrectable despite interleaving", i)
		}
		if status == Corrected && !bytes.Equal(got, datas[i]) {
			t.Fatalf("block %d mis-repaired", i)
		}
	}
}

func TestInterleaverValidation(t *testing.T) {
	if _, err := NewInterleaver(0); err == nil {
		t.Error("depth 0 accepted")
	}
	iv, _ := NewInterleaver(2)
	if _, err := iv.Interleave(make([]byte, 10)); err == nil {
		t.Error("bad interleave size accepted")
	}
	if _, err := iv.Deinterleave(make([]byte, 10)); err == nil {
		t.Error("bad deinterleave size accepted")
	}
}

func TestDecodeStatusString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" || Detected.String() != "detected" {
		t.Error("status names wrong")
	}
}
