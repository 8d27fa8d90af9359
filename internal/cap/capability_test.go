package cap

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func mustRoot(t *testing.T) Capability {
	t.Helper()
	return MustRoot(0, addrSpaceTop)
}

func TestNullCapability(t *testing.T) {
	if Null.Tag() {
		t.Error("null capability must be untagged")
	}
	if err := Null.CheckAccess("load", 0, 8, PermLoad); !errors.Is(err, ErrTagCleared) {
		t.Errorf("access via null: got %v, want ErrTagCleared", err)
	}
	lo, hi := Null.Encode()
	if lo != 0 || hi != 0 {
		t.Errorf("null encodes to (%#x, %#x), want zeros", lo, hi)
	}
}

func TestRootCoversAddressSpace(t *testing.T) {
	root := mustRoot(t)
	if root.Base() != 0 || root.Top() != addrSpaceTop {
		t.Fatalf("root bounds [%#x, %#x)", root.Base(), root.Top())
	}
	if !root.Perms().Has(PermAll) {
		t.Errorf("root perms %v lack PermAll", root.Perms())
	}
	if err := root.CheckAccess("store", 0x1234, 8, PermStore); err != nil {
		t.Errorf("root store: %v", err)
	}
}

func TestSetBoundsMonotonic(t *testing.T) {
	root := mustRoot(t)
	obj, err := root.SetBounds(0x10000, 64)
	if err != nil {
		t.Fatalf("SetBounds: %v", err)
	}
	if obj.Base() != 0x10000 || obj.Top() != 0x10040 || obj.Addr() != 0x10000 {
		t.Fatalf("derived %v", obj)
	}
	// Widening from the child must fail.
	if _, err := obj.SetBounds(0x10000, 128); !errors.Is(err, ErrMonotonicity) {
		t.Errorf("widening: got %v, want ErrMonotonicity", err)
	}
	if _, err := obj.SetBounds(0xFFF0, 32); !errors.Is(err, ErrMonotonicity) {
		t.Errorf("moving base below parent: got %v, want ErrMonotonicity", err)
	}
	// Narrowing is fine.
	inner, err := obj.SetBounds(0x10010, 16)
	if err != nil {
		t.Fatalf("narrowing: %v", err)
	}
	if inner.Base() != 0x10010 || inner.Len() != 16 {
		t.Errorf("inner %v", inner)
	}
}

func TestSetBoundsExactRejectsRounding(t *testing.T) {
	root := mustRoot(t)
	// Large unaligned length forces rounding.
	if _, err := root.SetBoundsExact(0x8, 1<<26); !errors.Is(err, ErrNotRepresentable) {
		t.Errorf("got %v, want ErrNotRepresentable", err)
	}
	// Aligned and padded succeeds.
	length := RepresentableLength(1 << 26)
	base := uint64(1<<30) & RepresentableAlignmentMask(length)
	if _, err := root.SetBoundsExact(base, length); err != nil {
		t.Errorf("aligned SetBoundsExact: %v", err)
	}
}

func TestSetBoundsUntagged(t *testing.T) {
	root := mustRoot(t)
	if _, err := root.ClearTag().SetBounds(0, 16); !errors.Is(err, ErrTagCleared) {
		t.Errorf("untagged SetBounds: got %v", err)
	}
}

func TestSetAddrWithinObjectKeepsTag(t *testing.T) {
	root := mustRoot(t)
	obj, _ := root.SetBounds(0x20000, 4096)
	moved := obj.SetAddr(0x20800)
	if !moved.Tag() {
		t.Fatal("in-bounds SetAddr cleared tag")
	}
	if moved.Base() != obj.Base() || moved.Top() != obj.Top() {
		t.Error("SetAddr changed bounds")
	}
}

func TestSetAddrFarOutClearsTag(t *testing.T) {
	root := mustRoot(t)
	obj, _ := root.SetBounds(0x20000, 4096)
	far := obj.SetAddr(0x20000 + (1 << 40))
	if far.Tag() {
		t.Error("far out-of-region SetAddr kept tag")
	}
}

func TestIncSmallOutOfBoundsKeepsTag(t *testing.T) {
	// C idiom: pointers may wander slightly past the object and back.
	root := mustRoot(t)
	obj, _ := root.SetBounds(0x30000, 64)
	past := obj.Inc(64) // one past the end
	if !past.Tag() {
		t.Fatal("one-past-end pointer lost tag")
	}
	back := past.Inc(-32)
	if !back.Tag() || back.Addr() != 0x30020 {
		t.Errorf("returning pointer: %v", back)
	}
	if err := past.CheckAccess("load", past.Addr(), 8, PermLoad); !errors.Is(err, ErrBounds) {
		t.Errorf("dereferencing one-past-end: got %v, want ErrBounds", err)
	}
}

func TestClearPermsMonotonic(t *testing.T) {
	root := mustRoot(t)
	ro := root.ClearPerms(PermStore | PermStoreCap)
	if ro.Perms().Has(PermStore) {
		t.Error("ClearPerms left PermStore")
	}
	if err := ro.CheckAccess("store", 0x100, 8, PermStore); !errors.Is(err, ErrPermission) {
		t.Errorf("store via read-only: got %v, want ErrPermission", err)
	}
	if err := ro.CheckAccess("load", 0x100, 8, PermLoad); err != nil {
		t.Errorf("load via read-only: %v", err)
	}
}

func TestCheckAccessBounds(t *testing.T) {
	root := mustRoot(t)
	obj, _ := root.SetBounds(0x1000, 32)
	cases := []struct {
		addr, size uint64
		wantErr    error
	}{
		{0x1000, 32, nil},
		{0x1000, 8, nil},
		{0x1018, 8, nil},
		{0x1019, 8, ErrBounds},
		{0xFF8, 8, ErrBounds},
		{0x1020, 1, ErrBounds},
		{0x1000, 33, ErrBounds},
	}
	for _, c := range cases {
		err := obj.CheckAccess("load", c.addr, c.size, PermLoad)
		if c.wantErr == nil && err != nil {
			t.Errorf("access %#x+%d: unexpected %v", c.addr, c.size, err)
		}
		if c.wantErr != nil && !errors.Is(err, c.wantErr) {
			t.Errorf("access %#x+%d: got %v, want %v", c.addr, c.size, err, c.wantErr)
		}
	}
}

func TestAccessErrorDetail(t *testing.T) {
	root := mustRoot(t)
	obj, _ := root.SetBounds(0x1000, 32)
	err := obj.CheckAccess("store", 0x2000, 8, PermStore)
	var ae *AccessError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AccessError, got %T", err)
	}
	if ae.Op != "store" || ae.Addr != 0x2000 || ae.Size != 8 {
		t.Errorf("AccessError fields: %+v", ae)
	}
	if ae.Error() == "" {
		t.Error("empty error string")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	root := mustRoot(t)
	obj, _ := root.SetBounds(0x123450, 0x230)
	obj = obj.SetAddr(0x123468).ClearPerms(PermExecute | PermSeal | PermUnseal | PermSystemRegs)
	lo, hi := obj.Encode()
	got := Decode(lo, hi, obj.Tag())
	if got != obj {
		t.Errorf("round trip:\n got %v\nwant %v", got, obj)
	}
	if DecodeBase(lo, hi) != obj.Base() {
		t.Errorf("DecodeBase = %#x, want %#x", DecodeBase(lo, hi), obj.Base())
	}
}

// TestCapabilityOpsZeroAlloc pins SetBounds and an Encode→Decode round trip
// at zero heap allocations: a Capability is a value, and bounds compression
// is integer arithmetic on it.
func TestCapabilityOpsZeroAlloc(t *testing.T) {
	root := mustRoot(t)
	var i uint64
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := root.SetBounds(i%1024*4096+0x10000000, 4096); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Errorf("SetBounds allocates %.2f per call, want 0", allocs)
	}
	c, _ := root.SetBounds(0x10000000, 4096)
	if allocs := testing.AllocsPerRun(1000, func() {
		lo, hi := c.Encode()
		c = Decode(lo, hi, true)
	}); allocs != 0 {
		t.Errorf("Encode→Decode allocates %.2f per round trip, want 0", allocs)
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	root := MustRoot(0, addrSpaceTop)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base, top := quickRegion(r)
		obj, err := root.SetBoundsExact(base, top-base)
		if err != nil {
			return false
		}
		obj = obj.SetAddr(base + uint64(r.Int63n(int64(top-base))))
		lo, hi := obj.Encode()
		return Decode(lo, hi, true) == obj
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMonotonicityChain(t *testing.T) {
	// Repeated random narrowings must never widen bounds or add perms.
	root := MustRoot(0, addrSpaceTop)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := root
		for i := 0; i < 8; i++ {
			if c.Len() < 32 {
				break
			}
			off := uint64(r.Int63n(int64(c.Len() / 2)))
			length := uint64(1) + uint64(r.Int63n(int64(c.Len()-off)))
			d, err := c.SetBounds(c.Base()+off, length)
			if err != nil {
				if errors.Is(err, ErrNotRepresentable) {
					continue // legal refusal, not a widening
				}
				return false
			}
			if d.Base() < c.Base() || d.Top() > c.Top() {
				return false
			}
			if d.Perms()&^c.Perms() != 0 {
				return false
			}
			c = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPermString(t *testing.T) {
	if s := Perm(0).String(); s != "-" {
		t.Errorf("Perm(0) = %q", s)
	}
	if s := (PermGlobal | PermLoad | PermStore).String(); s != "GRW" {
		t.Errorf("GRW perms = %q", s)
	}
}

// TestCapabilityLayout pins a Capability at four fields and 32 bytes. Go's
// compiler keeps a struct in registers only when it has at most four fields
// (ssa.MaxStruct) and at most four words (ssa.CanSSA), so a fifth field or
// word would send every derivation's copy through the stack.
func TestCapabilityLayout(t *testing.T) {
	if n := reflect.TypeOf(Capability{}).NumField(); n != 4 {
		t.Errorf("Capability has %d fields, want 4", n)
	}
	if n := unsafe.Sizeof(Capability{}); n != 32 {
		t.Errorf("Capability is %d bytes, want 32", n)
	}
}

// TestDecodeBaseMatchesDecodeBounds checks the base-only decode against
// decodeBounds over arbitrary images, at every value of the 6-bit exponent
// field, the ones past MaxExponent included.
func TestDecodeBaseMatchesDecodeBounds(t *testing.T) {
	const expMask = uint64(0x3F) << (2 * MantissaWidth)
	f := func(lo, hi uint64) bool {
		for e := uint64(0); e < 64; e++ {
			h := hi&^expMask | e<<(2*MantissaWidth)
			want, _ := decodeBounds(boundsEncoding(h&boundsMask), lo)
			if got := DecodeBase(lo, h); got != want {
				t.Logf("DecodeBase(%#x, %#x) = %#x, decodeBounds base %#x", lo, h, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestTagNeverReachesTheImage checks that the tag a value carries in its
// metadata word's reserved bit is never encoded, and that an image's
// reserved bits never decode into a tag.
func TestTagNeverReachesTheImage(t *testing.T) {
	root := mustRoot(t)
	obj, _ := root.SetBounds(0x10000, 64)
	if _, hi := obj.Encode(); hi>>56 != 0 {
		t.Errorf("tagged capability encodes reserved bits %#x", hi>>56)
	}
	lo, hi := obj.Encode()
	if Decode(lo, hi|0xFF<<56, false).Tag() {
		t.Error("reserved bits of an image decoded as a tag")
	}
	if got := Decode(lo, hi|0xFF<<56, true); got != obj {
		t.Errorf("image with reserved bits set decodes to %v, want %v", got, obj)
	}
}
