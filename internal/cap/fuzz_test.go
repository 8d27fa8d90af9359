package cap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The sweep's inner loop calls DecodeBase on every tagged granule, and
// programs can store arbitrary bit patterns with capability-width
// operations. Decoding must therefore be total: any 128-bit image decodes
// without panicking to SOME value, and re-encoding preserves the fields the
// format defines.

func TestQuickDecodeArbitraryImageTotal(t *testing.T) {
	f := func(lo, hi uint64) bool {
		c := Decode(lo, hi, false)
		if c.Tag() {
			return false // tag comes only from out-of-band state
		}
		_ = DecodeBase(lo, hi)
		_ = c.String()
		// Re-encoding preserves the address and every defined field.
		lo2, hi2 := c.Encode()
		const usedBits = boundsMask | permsMask<<permsShift
		return lo2 == lo && hi2 == hi&usedBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestQuickArbitraryImageCannotAuthorise(t *testing.T) {
	// However adversarial the bit pattern, an untagged image authorises
	// nothing, and CheckAccess never panics.
	f := func(lo, hi, addr uint64) bool {
		c := Decode(lo, hi, false)
		err := c.CheckAccess("load", addr, 8, PermLoad)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSetAddrNeverWidens(t *testing.T) {
	// Pointer arithmetic to arbitrary addresses either preserves bounds
	// exactly or clears the tag — never yields a tagged value with
	// different bounds.
	root := MustRoot(0, 1<<48)
	f := func(seed int64, wild uint64) bool {
		r := rand.New(rand.NewSource(seed))
		base, top := quickRegion(r)
		c, err := root.SetBoundsExact(base, top-base)
		if err != nil {
			return false
		}
		moved := c.SetAddr(wild)
		if !moved.Tag() {
			return true // tag cleared: safe
		}
		return moved.Base() == base && moved.Top() == top
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
