package fec

import (
	"errors"
	"fmt"
)

// Code parameters: 34 symbols on the wire, 32 data symbols, 2 check
// symbols — the (272, 256, 3) bit-level geometry of §IV.C.
const (
	// BlockSymbols is the coded block length in GF(2⁸) symbols.
	BlockSymbols = 34
	// DataSymbols is the user payload per block in symbols.
	DataSymbols = 32
	// CheckSymbols is the redundancy per block.
	CheckSymbols = BlockSymbols - DataSymbols
	// BlockBits and DataBits are the paper's (272, 256) figures.
	BlockBits = BlockSymbols * 8
	DataBits  = DataSymbols * 8
	// Overhead is the coding overhead the paper quotes (6.25%).
	Overhead = float64(CheckSymbols*8) / float64(DataBits)
)

// DecodeStatus classifies a decode attempt.
type DecodeStatus uint8

// Decode outcomes.
const (
	// OK: the block arrived clean.
	OK DecodeStatus = iota
	// Corrected: exactly one symbol error was found and repaired.
	Corrected
	// Detected: an uncorrectable pattern was flagged (≥2 symbol errors
	// with an inconsistent or out-of-range syndrome). The link layer
	// must retransmit.
	Detected
)

// String names the status.
func (s DecodeStatus) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("DecodeStatus(%d)", uint8(s))
	}
}

// ErrBlockSize reports a payload of the wrong length.
var ErrBlockSize = errors.New("fec: wrong block size")

// The parity-check matrix is the shortened GF(2⁸) Hamming matrix
//
//	H = | 1    1    ...  1     |
//	    | α⁰   α¹   ...  α³³   |
//
// whose 34 columns are pairwise linearly independent, giving distance 3.
// Syndromes for a received word c: s0 = Σ cᵢ, s1 = Σ cᵢ·αⁱ.
//
// Systematic encoding places the 32 data symbols at positions 0..31 and
// solves the two parity positions 32, 33 so both syndromes vanish.

// parity coefficients, precomputed in init: the 2×2 system
//
//	p32 +      p33      = A
//	p32·α³² +  p33·α³³  = B
//
// has solution p32 = (B + A·α³³)·k, p33 = A + p32, k = (α³²+α³³)⁻¹.
var parityK byte

func init() {
	parityK = Inv(Exp(32) ^ Exp(33))
}

// Encode appends the two parity symbols to 32 data bytes, returning the
// 34-byte coded block. The data slice is not modified.
func Encode(data []byte) ([]byte, error) {
	if len(data) != DataSymbols {
		return nil, fmt.Errorf("%w: got %d data bytes, want %d", ErrBlockSize, len(data), DataSymbols)
	}
	block := make([]byte, BlockSymbols)
	copy(block, data)
	var a, b byte // s0 and s1 partial sums over data positions
	for i, d := range data {
		a ^= d
		b ^= Mul(d, Exp(i))
	}
	p32 := Mul(b^Mul(a, Exp(33)), parityK)
	p33 := a ^ p32
	block[32] = p32
	block[33] = p33
	return block, nil
}

// Syndrome computes (s0, s1) for a 34-byte block.
func Syndrome(block []byte) (s0, s1 byte, err error) {
	if len(block) != BlockSymbols {
		return 0, 0, fmt.Errorf("%w: got %d coded bytes, want %d", ErrBlockSize, len(block), BlockSymbols)
	}
	for i, c := range block {
		s0 ^= c
		s1 ^= Mul(c, Exp(i))
	}
	return s0, s1, nil
}

// Decode checks and, if needed, repairs a 34-byte block in place, then
// returns the 32 data bytes (aliasing block's storage) and the outcome.
//
// The decoder applies the paper's correction policy exactly: it corrects
// all single *bit* errors and detects all double bit errors. A distance-3
// symbol code cannot do both if it corrects arbitrary single-symbol
// patterns (a double-bit error hitting two symbols can alias a
// multi-bit single-symbol error), so correction is restricted to error
// magnitudes of Hamming weight one — the only patterns the optical
// channel's independent bit flips produce at first order. Any in-range
// alias with a multi-bit magnitude is flagged Detected instead, which is
// what makes every double-bit error detectable (their aliased magnitude
// s0 = e1 xor e2 always has weight two).
func Decode(block []byte) ([]byte, DecodeStatus, error) {
	return decode(block, false)
}

func decode(block []byte, symbolMode bool) ([]byte, DecodeStatus, error) {
	s0, s1, err := Syndrome(block)
	if err != nil {
		return nil, Detected, err
	}
	switch {
	case s0 == 0 && s1 == 0:
		return block[:DataSymbols], OK, nil
	case s0 == 0 || s1 == 0:
		// A single error at position j gives s0 = e ≠ 0 and
		// s1 = e·α^j ≠ 0; one vanishing syndrome implies ≥2 errors.
		return nil, Detected, nil
	}
	// Candidate single error: magnitude s0 at position log(s1/s0).
	pos := (Log(s1) - Log(s0) + 255) % 255
	if pos >= BlockSymbols {
		// Out of range for the shortened code: ≥2 errors.
		return nil, Detected, nil
	}
	if !symbolMode && s0&(s0-1) != 0 {
		// Multi-bit magnitude: not a first-order channel error.
		return nil, Detected, nil
	}
	block[pos] ^= s0
	return block[:DataSymbols], Corrected, nil
}

// Interleaver spreads the symbols of depth consecutive FEC blocks
// column-wise over the wire so a burst of up to depth consecutive
// symbol corruptions hits each block at most once and stays correctable.
type Interleaver struct {
	depth int
}

// NewInterleaver returns a block interleaver of the given depth (>= 1).
func NewInterleaver(depth int) (*Interleaver, error) {
	if depth < 1 {
		return nil, fmt.Errorf("fec: interleaver depth %d < 1", depth)
	}
	return &Interleaver{depth: depth}, nil
}

// Interleave reorders depth concatenated coded blocks (depth×34 bytes)
// into wire order.
func (iv *Interleaver) Interleave(blocks []byte) ([]byte, error) {
	if len(blocks) != iv.depth*BlockSymbols {
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrBlockSize, len(blocks), iv.depth*BlockSymbols)
	}
	out := make([]byte, len(blocks))
	k := 0
	for col := 0; col < BlockSymbols; col++ {
		for row := 0; row < iv.depth; row++ {
			out[k] = blocks[row*BlockSymbols+col]
			k++
		}
	}
	return out, nil
}

// Deinterleave inverts Interleave.
func (iv *Interleaver) Deinterleave(wire []byte) ([]byte, error) {
	if len(wire) != iv.depth*BlockSymbols {
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrBlockSize, len(wire), iv.depth*BlockSymbols)
	}
	out := make([]byte, len(wire))
	k := 0
	for col := 0; col < BlockSymbols; col++ {
		for row := 0; row < iv.depth; row++ {
			out[row*BlockSymbols+col] = wire[k]
			k++
		}
	}
	return out, nil
}
