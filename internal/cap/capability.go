package cap

import "fmt"

// Capability is an architectural CHERI capability value: a 64-bit address
// plus protected metadata (bounds and permissions) and a validity tag. The
// zero value is the untagged null capability.
//
// It holds the two words of its memory image (Figure 2 of the paper) with
// the tag in the metadata word's reserved bit 63, beside the decoded bounds.
// Four words and four fields is the largest struct Go's compiler keeps in
// registers (TestCapabilityLayout), so derivations copy no memory.
//
// Capability is a value type; all derivations return new values, mirroring
// register-to-register capability instructions. Every constructor and method
// preserves the two architectural invariants CHERIvoke relies on:
//
//   - monotonicity: no derivation widens bounds or adds permissions;
//   - provenance: a tagged value can only be produced from another tagged
//     value (ultimately from a Root capability).
type Capability struct {
	addr uint64
	base uint64
	top  uint64
	meta uint64 // the image's metadata word (see encode.go), tag in bit 63
}

// Null is the canonical untagged null capability, the result of revocation:
// an all-zero word whose tag is cleared.
var Null Capability

// Root returns an omnipotent capability over [base, top) with all
// permissions, as installed in the register file at machine reset (footnote 1
// of the paper). The bounds must be exactly representable; root capabilities
// cover whole address-space regions, which always are.
func Root(base, top uint64) (Capability, error) {
	enc, exact := encodeBounds(base, top)
	if !exact {
		return Null, fmt.Errorf("cap: root bounds [%#x, %#x): %w", base, top, ErrNotRepresentable)
	}
	return Capability{
		addr: base,
		base: base,
		top:  top,
		meta: uint64(enc) | uint64(PermAll)<<permsShift | tagBit,
	}, nil
}

// MustRoot is Root for statically-valid bounds; it panics on error and is
// intended for test and machine-reset code.
func MustRoot(base, top uint64) Capability {
	c, err := Root(base, top)
	if err != nil {
		panic(err)
	}
	return c
}

// Tag reports whether the capability's validity tag is set. An untagged
// capability is plain data and authorises nothing.
func (c Capability) Tag() bool { return c.meta&tagBit != 0 }

// Addr returns the capability's current address (cursor).
func (c Capability) Addr() uint64 { return c.addr }

// Base returns the inclusive lower bound.
func (c Capability) Base() uint64 { return c.base }

// Top returns the exclusive upper bound.
func (c Capability) Top() uint64 { return c.top }

// Len returns the length of the bounded region in bytes.
func (c Capability) Len() uint64 { return c.top - c.base }

// Perms returns the permission set.
func (c Capability) Perms() Perm { return Perm(c.meta >> permsShift & permsMask) }

// InBounds reports whether an access of size bytes at addr lies entirely
// within the capability's bounds.
func (c Capability) InBounds(addr, size uint64) bool {
	if addr < c.base || addr > c.top {
		return false
	}
	return size <= c.top-addr
}

// ClearTag returns the capability with its validity tag cleared — the effect
// of revocation, or of a non-capability write over a capability word.
func (c Capability) ClearTag() Capability {
	c.meta &^= tagBit
	return c
}

// SetAddr returns the capability with its address moved to addr (pointer
// arithmetic). If the new address lies outside the encoding's representable
// region, the bounds can no longer be reconstructed and the result's tag is
// cleared, as in CHERI-Concentrate hardware.
func (c Capability) SetAddr(addr uint64) Capability {
	c.addr = addr
	if c.Tag() && !representable(boundsEncoding(c.meta&boundsMask), c.base, c.top, addr) {
		c.meta &^= tagBit
	}
	return c
}

// Inc returns the capability with its address advanced by delta bytes
// (which may be negative via two's-complement wrap-around).
func (c Capability) Inc(delta int64) Capability {
	return c.SetAddr(c.addr + uint64(delta))
}

// SetBounds derives a capability whose bounds are the smallest representable
// superset of [base, base+length); the result's address is its base. It
// fails with ErrMonotonicity if even the requested bounds leave the parent's,
// and with ErrNotRepresentable if rounding would widen them beyond the
// parent's bounds. Allocators avoid rounding entirely by aligning and
// padding with RepresentableAlignmentMask and RepresentableLength.
func (c Capability) SetBounds(base, length uint64) (Capability, error) {
	if !c.Tag() {
		return Null, fmt.Errorf("cap: SetBounds: %w", ErrTagCleared)
	}
	top := base + length
	if top < base {
		return Null, fmt.Errorf("cap: SetBounds: length overflow: %w", ErrMonotonicity)
	}
	if base < c.base || top > c.top {
		return Null, fmt.Errorf("cap: SetBounds [%#x,%#x) exceeds [%#x,%#x): %w",
			base, top, c.base, c.top, ErrMonotonicity)
	}
	enc, exact := encodeBounds(base, top)
	nb, nt := base, top
	if !exact {
		nb, nt = decodeBounds(enc, base)
		if nb < c.base || nt > c.top {
			return Null, fmt.Errorf("cap: SetBounds [%#x,%#x) rounds to [%#x,%#x) outside parent: %w",
				base, top, nb, nt, ErrNotRepresentable)
		}
	}
	c.addr = base
	c.base = nb
	c.top = nt
	c.meta = c.meta&^boundsMask | uint64(enc)
	return c, nil
}

// SetBoundsExact is SetBounds but fails with ErrNotRepresentable whenever
// any rounding would be required.
func (c Capability) SetBoundsExact(base, length uint64) (Capability, error) {
	d, err := c.SetBounds(base, length)
	if err != nil {
		return Null, err
	}
	if d.base != base || d.top != base+length {
		return Null, fmt.Errorf("cap: SetBoundsExact [%#x,+%#x): %w", base, length, ErrNotRepresentable)
	}
	return d, nil
}

// ClearPerms derives a capability with the given permission bits removed.
// Removing bits is the only permitted permission change.
func (c Capability) ClearPerms(bits Perm) Capability {
	c.meta &^= uint64(bits&PermAll) << permsShift
	return c
}

// CheckAccess validates an access of size bytes at addr requiring the given
// permissions, returning nil or an *AccessError wrapping the sentinel cause.
func (c Capability) CheckAccess(op string, addr, size uint64, need Perm) error {
	fail := func(err error) error {
		return &AccessError{Op: op, Addr: addr, Size: size, Cap: c, Err: err}
	}
	switch {
	case !c.Tag():
		return fail(ErrTagCleared)
	case !c.Perms().Has(need):
		return fail(ErrPermission)
	case !c.InBounds(addr, size):
		return fail(ErrBounds)
	}
	return nil
}

// String renders the capability for diagnostics, e.g.
// "0x10020 [0x10000,0x10040) GRWrwl t=1".
func (c Capability) String() string {
	return fmt.Sprintf("%#x [%#x,%#x) %v t=%d", c.addr, c.base, c.top, c.Perms(), c.meta>>63)
}
