package cap

// In-memory image of a capability (Figure 2 of the paper): 128 bits, stored
// as two 64-bit words. The low word is the address; the high word packs the
// protected metadata:
//
//	hi[45:0]   compressed bounds (E:6 | B:20 | T:20)
//	hi[55:46]  permissions (10 defined bits; the paper's field is 15 wide)
//	hi[63:56]  reserved
//
// The validity tag is not part of the 128-bit image: it lives in the tagged
// memory's out-of-band tag storage (internal/mem), exactly as in hardware,
// which is what makes tags unforgeable by data writes. A Capability value
// keeps its tag in the metadata word's reserved bit 63 (tagBit); Encode
// clears that bit, so it is never written to memory.
const (
	boundsBits = 46
	boundsMask = (uint64(1) << boundsBits) - 1
	permsShift = boundsBits
	permsBits  = 10
	permsMask  = (uint64(1) << permsBits) - 1
	tagBit     = uint64(1) << 63
)

// Encode packs the capability into its two-word memory image. The validity
// tag is returned by Tag and must be stored out of band.
func (c Capability) Encode() (lo, hi uint64) {
	return c.addr, c.meta &^ tagBit
}

// Decode reconstructs a capability from its two-word memory image and the
// out-of-band tag bit. Decoding an untagged image yields plain data wrapped
// in an unusable (untagged) capability value. The image's reserved bits are
// dropped.
func Decode(lo, hi uint64, tag bool) Capability {
	meta := hi & (boundsMask | permsMask<<permsShift)
	if tag {
		meta |= tagBit
	}
	base, top := decodeBounds(boundsEncoding(meta&boundsMask), lo)
	return Capability{addr: lo, base: base, top: top, meta: meta}
}

// DecodeBase returns only the base of the capability image — the single
// field the CHERIvoke sweeping loop needs for its shadow-map lookup (§3.3 of
// the paper: "the sweeping procedure performs a lookup in the shadow map
// using the base of each capability"). It is decodeBounds's base half: the
// address bits above the window, corrected by B's and the address's sides
// of R, over B shifted into place. Go defines a shift by 64 or more as 0,
// which is decodeBounds's shift >= 64 case.
func DecodeBase(lo, hi uint64) uint64 {
	e := uint(hi>>(2*MantissaWidth)) & 0x3F
	b := hi >> MantissaWidth & mantissaMask
	r := (b - 1<<(MantissaWidth-2)) & mantissaMask
	above := lo >> (e + MantissaWidth)
	if b < r {
		above++
	}
	if lo>>e&mantissaMask < r {
		above--
	}
	return above<<(e+MantissaWidth) | b<<e
}
