package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := (51200 * Picosecond).Nanoseconds(); got != 51.2 {
		t.Errorf("51.2ns cell cycle: got %v ns", got)
	}
	if got := Microsecond.Seconds(); got != 1e-6 {
		t.Errorf("1us in seconds: got %v", got)
	}
	if got := FromNanoseconds(51.2); got != 51200*Picosecond {
		t.Errorf("FromNanoseconds(51.2) = %d ps", int64(got))
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{51200 * Picosecond, "51.2ns"},
		{250 * Nanosecond, "250ns"},
		{Microsecond + 200*Nanosecond, "1.2us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{Infinity, "inf"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d ps: got %q want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTransmissionTime(t *testing.T) {
	// §V: a 256-byte cell at 40 Gb/s takes 51.2 ns.
	if got := TransmissionTime(256, OSMOSISPortRate); got != 51200*Picosecond {
		t.Errorf("OSMOSIS cell time: got %v", got)
	}
	// §IV: a 64-byte packet at 12 GByte/s takes 5.33 ns.
	got := TransmissionTime(64, IB12xQDRPortRate)
	if math.Abs(got.Nanoseconds()-5.333) > 0.01 {
		t.Errorf("64B at 12GByte/s: got %v want ~5.33ns", got)
	}
	if got := TransmissionTime(100, 0); got != Infinity {
		t.Errorf("zero bandwidth should be Infinity, got %v", got)
	}
}

func TestBitTime(t *testing.T) {
	if got := BitTime(40 * GigabitPerSecond); got != 25*Picosecond {
		t.Errorf("bit time at 40Gb/s: got %v want 25ps", got)
	}
}

func TestBandwidthString(t *testing.T) {
	if got := OSMOSISPortRate.String(); got != "40Gb/s" {
		t.Errorf("got %q", got)
	}
	if got := (200 * TerabitPerSecond).String(); got != "200Tb/s" {
		t.Errorf("got %q", got)
	}
	if got := IB12xQDRPortRate.GBytePerSec(); got != 12 {
		t.Errorf("IB 12x QDR: got %v GByte/s", got)
	}
}

func TestFiberDelay(t *testing.T) {
	// §III: 250 ns time of flight for a 50 m machine room.
	if got := FiberDelay(50); got != 250*Nanosecond {
		t.Errorf("50m fiber: got %v want 250ns", got)
	}
	if got := RoundTrip(50); got != 500*Nanosecond {
		t.Errorf("50m round trip: got %v want 500ns", got)
	}
}

func TestDBRatio(t *testing.T) {
	if got := DB(10).Ratio(); math.Abs(got-10) > 1e-12 {
		t.Errorf("10 dB: got ratio %v", got)
	}
	if got := DB(-3).Ratio(); math.Abs(got-0.5011872) > 1e-6 {
		t.Errorf("-3 dB: got ratio %v", got)
	}
	if got := RatioToDB(100); math.Abs(float64(got)-20) > 1e-12 {
		t.Errorf("ratio 100: got %v dB", got)
	}
	if got := RatioToDB(0); !math.IsInf(float64(got), -1) {
		t.Errorf("ratio 0 should be -inf, got %v", got)
	}
}

func TestDBmMath(t *testing.T) {
	if got := DBm(0).Milliwatts(); got != 1 {
		t.Errorf("0 dBm: got %v mW", got)
	}
	if got := MilliwattsToDBm(100); math.Abs(float64(got)-20) > 1e-12 {
		t.Errorf("100 mW: got %v dBm", got)
	}
	p := DBm(3).Add(-6)
	if math.Abs(float64(p)+3) > 1e-12 {
		t.Errorf("3 dBm - 6 dB: got %v", p)
	}
	if got := DBm(10).Sub(4); math.Abs(float64(got)-6) > 1e-12 {
		t.Errorf("10 dBm - 4 dBm: got %v dB", got)
	}
}

func TestSplitLoss(t *testing.T) {
	// The demonstrator's 1:128 star coupler: ~21 dB ideal loss.
	got := SplitLoss(128)
	if math.Abs(float64(got)+21.07) > 0.01 {
		t.Errorf("1:128 split: got %v dB want ~-21.07", got)
	}
	if SplitLoss(1) != 0 {
		t.Errorf("1:1 split should be lossless")
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		// Ratios spanning 1e-6 .. 1e6.
		ratio := math.Pow(10, (float64(raw)/65535-0.5)*12)
		back := RatioToDB(ratio).Ratio()
		return math.Abs(back-ratio)/ratio < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBmRoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		mw := math.Pow(10, (float64(raw)/65535-0.5)*8)
		back := MilliwattsToDBm(mw).Milliwatts()
		return math.Abs(back-mw)/mw < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransmissionTimeMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		n1, n2 := int(a%4096)+1, int(b%4096)+1
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		return TransmissionTime(n1, OSMOSISPortRate) <= TransmissionTime(n2, OSMOSISPortRate)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
