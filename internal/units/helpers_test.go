package units

import "math"

// Conversions only the tests use, to state expected values in the
// units the paper quotes.

// GBytePerSec reports the bandwidth in GByte/s.
func (b Bandwidth) GBytePerSec() float64 { return float64(b) / 8e9 }

// Ratio converts a dB value to a linear power ratio.
func (d DB) Ratio() float64 { return math.Pow(10, float64(d)/10) }
