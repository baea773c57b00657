package fec

// Field arithmetic the codec does not need, kept as test oracles: the
// table-free multiplication validates the log/exp tables, and Add, Div
// and MulPoly let the field-axiom and polynomial tests state their
// identities. DecodeSymbol is the unrestricted decoder mode the codec
// never selects; the tests pin what it would trade.

// Add returns a + b in GF(2⁸) (carry-less addition = XOR).
func Add(a, b byte) byte { return a ^ b }

// Div returns a / b in GF(2⁸). Division by zero panics — it is always a
// caller bug in this package.
func Div(a, b byte) byte {
	if b == 0 {
		//lint:ignore panicfree GF(256) division by zero mirrors integer division: always a caller bug in hot codec loops
		panic("fec: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]-gfLog[b]+255]
}

// MulPoly multiplies two polynomials over GF(2⁸) (coefficient slices,
// index = degree). Used by tests to cross-check table arithmetic.
func MulPoly(a, b []byte) []byte {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]byte, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= Mul(ai, bj)
		}
	}
	return out
}

// mulNoTable is the shift-and-reduce reference multiplication; tests use
// it to validate the log/exp tables.
func mulNoTable(a, b byte) byte {
	var p uint16
	aa, bb := uint16(a), uint16(b)
	for bb != 0 {
		if bb&1 != 0 {
			p ^= aa
		}
		aa <<= 1
		if aa&0x100 != 0 {
			aa ^= fieldPoly
		}
		bb >>= 1
	}
	return byte(p)
}

// DecodeSymbol is the unrestricted variant correcting any single-symbol
// error pattern (up to 8 adjacent bit flips in one byte); it trades the
// all-double-bit-detection guarantee for intra-symbol burst correction.
func DecodeSymbol(block []byte) ([]byte, DecodeStatus, error) {
	return decode(block, true)
}
