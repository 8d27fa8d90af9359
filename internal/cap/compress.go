// Package cap implements CHERI-128-style architectural capabilities: tagged,
// bounded, unforgeable pointers with compressed bounds encoding, permission
// bits and monotonic derivation rules.
//
// The package models the properties CHERIvoke (Xia et al., MICRO 2019)
// depends on:
//
//   - every pointer word carries a 1-bit validity tag, so pointers are
//     precisely distinguishable from data;
//   - each capability encodes the full [base, top) range it may reference, so
//     any reference can be attributed to the allocation it was derived from;
//   - bounds are monotonic: no derivation may enlarge them, so the base of a
//     heap capability always lies within its original allocation.
//
// The in-memory format is 128 bits (16 bytes): a 64-bit address word and a
// 64-bit metadata word holding permissions and compressed bounds, mirroring
// Figure 2 of the paper. Bounds are compressed with a
// CHERI-Concentrate-style floating-point encoding implemented in this file.
package cap

import (
	"fmt"
	"math/bits"
)

// Bounds-compression geometry.
//
// The 46-bit compressed-bounds field of the metadata word is split into a
// 6-bit exponent E and two 20-bit mantissas B and T. B and T are the 20-bit
// slices base[E+19:E] and top[E+19:E]; the bits of base and top above E+20
// are reconstructed from the address using the CHERI-Concentrate correction
// rule, and the bits below E are implicitly zero. Bounds whose base or top
// are not multiples of 1<<E are therefore not exactly representable.
const (
	// MantissaWidth is the width in bits of the B and T bounds mantissas.
	MantissaWidth = 20

	// MaxExponent bounds the encodable exponent. With a 20-bit mantissa
	// this allows object lengths up to 2^(19+43) bytes, far beyond the
	// simulated address space.
	MaxExponent = 43

	mantissaMask = (1 << MantissaWidth) - 1

	// maxWindow is the largest T-B span encode will produce for a given
	// exponent. Keeping the span at or below half the 2^MantissaWidth
	// window guarantees the representable region around the bounds is
	// wide enough for the decode correction rule to round-trip any
	// address inside [base, top].
	maxWindow = 1 << (MantissaWidth - 1)
)

// boundsEncoding is the packed 46-bit compressed-bounds field.
//
// Layout (low bit first): T[19:0] | B[19:0] | E[5:0].
type boundsEncoding uint64

func packBounds(e uint, b, t uint64) boundsEncoding {
	return boundsEncoding(t&mantissaMask |
		(b&mantissaMask)<<MantissaWidth |
		uint64(e)<<(2*MantissaWidth))
}

func (enc boundsEncoding) exponent() uint {
	return uint(enc>>(2*MantissaWidth)) & 0x3F
}

func (enc boundsEncoding) bField() uint64 {
	return uint64(enc>>MantissaWidth) & mantissaMask
}

func (enc boundsEncoding) tField() uint64 {
	return uint64(enc) & mantissaMask
}

// encodeBounds compresses [base, top) into the 46-bit bounds field.
// It returns the encoding and whether the bounds were exactly representable;
// when they are not, the encoded bounds are the smallest representable
// superset (base rounded down, top rounded up to 1<<E alignment).
func encodeBounds(base, top uint64) (enc boundsEncoding, exact bool) {
	if top < base {
		top = base
	}
	for e := uint(0); ; e++ {
		b := base >> e
		t := top >> e
		if top&((uint64(1)<<e)-1) != 0 {
			t++ // round top up
		}
		if t-b <= maxWindow {
			exact = b<<e == base && t<<e == top
			return packBounds(e, b, t), exact
		}
		if e == MaxExponent {
			// Cannot happen for lengths within the simulated
			// address space; saturate defensively.
			return packBounds(e, b, b+maxWindow), false
		}
	}
}

// decodeBounds reconstructs [base, top) from a compressed encoding and the
// capability's current address, using the CHERI-Concentrate correction rule:
// the address bits above the encoding window locate the window in the address
// space, corrected by ±1 when the address's window-relative slice has wrapped
// past the representable-region boundary R = B - 2^(MW-2).
func decodeBounds(enc boundsEncoding, addr uint64) (base, top uint64) {
	e := enc.exponent()
	b := enc.bField()
	t := enc.tField()

	shift := e + MantissaWidth
	aMid := (addr >> e) & mantissaMask
	aTop := int64(0)
	if shift < 64 {
		aTop = int64(addr >> shift)
	}

	r := (b - (1 << (MantissaWidth - 2))) & mantissaMask
	aHi := int64(0)
	if aMid < r {
		aHi = 1
	}
	bHi := int64(0)
	if b < r {
		bHi = 1
	}
	tHi := int64(0)
	if t < r {
		tHi = 1
	}

	baseHi := uint64(aTop + bHi - aHi)
	topHi := uint64(aTop + tHi - aHi)
	if shift >= 64 {
		baseHi, topHi = 0, 0
	}
	base = baseHi<<shift | b<<e
	top = topHi<<shift | t<<e
	return base, top
}

// representable reports whether the given address decodes back to the same
// bounds under the encoding — that is, whether the address lies inside the
// encoding's representable region. Addresses can legally wander somewhat out
// of bounds (C idioms rely on it), but an address outside the representable
// region cannot preserve the bounds and must clear the tag.
func representable(enc boundsEncoding, base, top, addr uint64) bool {
	b2, t2 := decodeBounds(enc, addr)
	return b2 == base && t2 == top
}

// RepresentableAlignmentMask returns an address mask such that a region of
// the given length whose base is aligned to the mask (base & ^mask == base)
// is exactly representable. Allocators use it to pad and align allocations so
// that returned capabilities have exact bounds (footnote 2 of the paper).
func RepresentableAlignmentMask(length uint64) uint64 {
	if length <= maxWindow {
		return ^uint64(0)
	}
	e := uint(bits.Len64(length-1)) - (MantissaWidth - 1)
	if e > MaxExponent {
		e = MaxExponent
	}
	return ^((uint64(1) << e) - 1)
}

// RepresentableLength rounds length up to the next exactly-representable
// object length (a multiple of the encoding granule 1<<E for the chosen
// exponent).
func RepresentableLength(length uint64) uint64 {
	mask := RepresentableAlignmentMask(length)
	granule := ^mask + 1
	if granule == 0 {
		return length
	}
	rounded := (length + granule - 1) &^ (granule - 1)
	return rounded
}

func (enc boundsEncoding) String() string {
	return fmt.Sprintf("E=%d B=%#x T=%#x", enc.exponent(), enc.bField(), enc.tField())
}
