// Package fec implements the paper's forward-error-correction layer
// (§IV.C): a generalized non-binary cyclic Hamming code (272, 256, 3)
// over GF(2⁸) built on the field polynomial
//
//	p(x) = x⁸ + x⁴ + x³ + x² + 1,
//
// i.e. 34 byte-symbols per block of which 32 carry user data, 6.25%
// overhead, minimum distance 3: every single symbol error (hence every
// single bit error) is corrected and double symbol errors are flagged.
// A block interleaver spreads burst errors over several blocks, and the
// residual-BER arithmetic reproduces the paper's two-tier error budget
// (raw 1e-10…1e-12 → user better than 1e-17 → with link-level
// retransmission better than 1e-21).
package fec

// Field polynomial p(x) = x^8+x^4+x^3+x^2+1 -> bits 1_0001_1101 = 0x11D.
const fieldPoly = 0x11D

// gfExp holds α^i for i in [0, 510) so products avoid a mod; gfLog is
// the inverse table with gfLog[0] unused.
var (
	gfExp [510]byte
	gfLog [256]int
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= fieldPoly
		}
	}
	for i := 255; i < 510; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// Mul returns a * b in GF(2⁸).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

// Inv returns the multiplicative inverse of a. Zero panics.
func Inv(a byte) byte {
	if a == 0 {
		//lint:ignore panicfree zero has no inverse; a caller bug, not a data error
		panic("fec: inverse of zero in GF(256)")
	}
	return gfExp[255-gfLog[a]]
}

// Exp returns α^i (i may be any non-negative integer).
func Exp(i int) byte { return gfExp[i%255] }

// Log returns the discrete logarithm of a (a != 0) base α.
func Log(a byte) int {
	if a == 0 {
		//lint:ignore panicfree log of zero is undefined; a caller bug, not a data error
		panic("fec: log of zero in GF(256)")
	}
	return gfLog[a]
}
