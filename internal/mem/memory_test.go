package mem

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/cap"
)

const heapBase = uint64(0x10000000)

func newHeap(t *testing.T, pages uint64) (*Memory, cap.Capability) {
	t.Helper()
	m := New()
	if err := m.Map(heapBase, pages*PageSize); err != nil {
		t.Fatalf("Map: %v", err)
	}
	root := cap.MustRoot(0, 1<<48)
	heap, err := root.SetBoundsExact(heapBase, pages*PageSize)
	if err != nil {
		t.Fatalf("SetBoundsExact: %v", err)
	}
	return m, heap
}

func TestMapUnmap(t *testing.T) {
	m := New()
	if err := m.Map(heapBase, 4*PageSize); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if !m.Mapped(heapBase + 3*PageSize + 100) {
		t.Error("expected mapped")
	}
	if m.MappedBytes() != 4*PageSize {
		t.Errorf("MappedBytes = %d", m.MappedBytes())
	}
	if err := m.Map(heapBase+PageSize, PageSize); !errors.Is(err, ErrOverlap) {
		t.Errorf("overlapping Map: got %v", err)
	}
	if err := m.Map(heapBase+100, PageSize); !errors.Is(err, ErrAlign) {
		t.Errorf("unaligned Map: got %v", err)
	}
	if err := m.Unmap(heapBase, 2*PageSize); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if m.Mapped(heapBase) || !m.Mapped(heapBase+2*PageSize) {
		t.Error("Unmap removed wrong pages")
	}
}

// TestMapRejectsRangesOutsideAddressSpace pins the 48-bit address space:
// a range that wraps past 2^64 or reaches past 2^48 maps nothing, however
// often it is tried.
func TestMapRejectsRangesOutsideAddressSpace(t *testing.T) {
	m := New()
	for _, r := range []struct{ addr, size uint64 }{
		{0xFFFFFFFFFFFFF000, 0x2000}, // wraps past 2^64
		{0xFFFFFFFFFFFFF000, 0x2000}, // and again: no double-map
		{1 << 48, PageSize},
		{1<<48 - PageSize, 2 * PageSize},
	} {
		if err := m.Map(r.addr, r.size); !errors.Is(err, ErrRange) {
			t.Errorf("Map(%#x, %#x) = %v, want ErrRange", r.addr, r.size, err)
		}
		if err := m.Unmap(r.addr, r.size); !errors.Is(err, ErrRange) {
			t.Errorf("Unmap(%#x, %#x) = %v, want ErrRange", r.addr, r.size, err)
		}
	}
	if m.PageCount() != 0 || m.Mapped(0) || m.Mapped(1<<48) {
		t.Fatalf("rejected ranges mapped %d pages", m.PageCount())
	}
	if err := m.Map(1<<48-PageSize, PageSize); err != nil {
		t.Errorf("mapping the top page of the space: %v", err)
	}
}

// TestMapExtendsAndSplitsRegions checks the region table's shapes: a Map
// that starts where a mapping ends extends its region, a hole unmapped from
// the middle splits it, and a later Map of the hole's pages never writes
// into the part above the hole.
func TestMapExtendsAndSplitsRegions(t *testing.T) {
	m := New()
	for i := uint64(0); i < 4; i++ {
		if err := m.Map(heapBase+i*4*PageSize, 4*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.regions) != 1 || m.PageCount() != 16 {
		t.Fatalf("four abutting Maps made %d regions, %d pages", len(m.regions), m.PageCount())
	}
	if err := m.RawStoreWord(heapBase+10*PageSize, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(heapBase+4*PageSize, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if len(m.regions) != 2 {
		t.Fatalf("a hole made %d regions, want 2", len(m.regions))
	}
	if err := m.Map(heapBase+4*PageSize, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if v, err := m.RawLoadWord(heapBase + 10*PageSize); err != nil || v != 7 {
		t.Errorf("word above the hole = %d, %v after re-mapping the hole", v, err)
	}
	if err := m.Map(heapBase+7*PageSize, 2*PageSize); !errors.Is(err, ErrOverlap) {
		t.Errorf("Map across the upper region's base: %v, want ErrOverlap", err)
	}
	if !m.CheckTagInvariant() || m.PageCount() != 14 {
		t.Errorf("after re-mapping: invariant %v, %d pages", m.CheckTagInvariant(), m.PageCount())
	}
}

func TestLoadStoreWord(t *testing.T) {
	m, heap := newHeap(t, 2)
	if err := m.StoreWord(heap, heapBase+8, 0xDEADBEEF); err != nil {
		t.Fatalf("StoreWord: %v", err)
	}
	v, err := m.LoadWord(heap, heapBase+8)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("LoadWord = %#x, %v", v, err)
	}
	if _, err := m.LoadWord(heap, heapBase+9); !errors.Is(err, ErrAlign) {
		t.Errorf("misaligned load: got %v", err)
	}
	if _, err := m.LoadWord(heap, heapBase+5*PageSize); !errors.Is(err, cap.ErrBounds) {
		t.Errorf("out-of-bounds load: got %v", err)
	}
	noLoad := heap.ClearPerms(cap.PermLoad)
	if _, err := m.LoadWord(noLoad, heapBase+8); !errors.Is(err, cap.ErrPermission) {
		t.Errorf("load without PermLoad: got %v", err)
	}
}

func TestStoreCapSetsTagAndCapDirty(t *testing.T) {
	m, heap := newHeap(t, 2)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	if err := m.StoreCap(heap, heapBase+0x40, obj); err != nil {
		t.Fatalf("StoreCap: %v", err)
	}
	if tag, _ := m.Tag(heapBase + 0x40); !tag {
		t.Fatal("tag not set after StoreCap")
	}
	if dirty, _ := m.CapDirty(heapBase); !dirty {
		t.Error("CapDirty not set after tagged store")
	}
	if dirty, _ := m.CapDirty(heapBase + PageSize); dirty {
		t.Error("CapDirty leaked to untouched page")
	}
	if m.Stats().DirtyTraps != 1 {
		t.Errorf("DirtyTraps = %d, want 1", m.Stats().DirtyTraps)
	}
	// A second tagged store to the same page must not trap again.
	if err := m.StoreCap(heap, heapBase+0x80, obj); err != nil {
		t.Fatalf("StoreCap: %v", err)
	}
	if m.Stats().DirtyTraps != 1 {
		t.Errorf("DirtyTraps after second store = %d, want 1", m.Stats().DirtyTraps)
	}
}

func TestLoadCapRoundTrip(t *testing.T) {
	m, heap := newHeap(t, 2)
	obj, _ := heap.SetBoundsExact(heapBase+0x200, 128)
	obj = obj.SetAddr(heapBase + 0x240)
	if err := m.StoreCap(heap, heapBase+0x40, obj); err != nil {
		t.Fatalf("StoreCap: %v", err)
	}
	got, err := m.LoadCap(heap, heapBase+0x40)
	if err != nil {
		t.Fatalf("LoadCap: %v", err)
	}
	if got != obj {
		t.Errorf("LoadCap:\n got %v\nwant %v", got, obj)
	}
}

func TestDataStoreClearsTag(t *testing.T) {
	m, heap := newHeap(t, 1)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	if err := m.StoreCap(heap, heapBase+0x40, obj); err != nil {
		t.Fatal(err)
	}
	// Overwrite one word of the capability with data: the tag must drop.
	if err := m.StoreWord(heap, heapBase+0x40, 0x41414141); err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadCap(heap, heapBase+0x40)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag() {
		t.Fatal("capability forged: tag survived a data overwrite")
	}
	if m.Stats().TagsClear == 0 {
		t.Error("TagsClear not counted")
	}
}

func TestLoadCapWithoutPermLoadCapStripsTag(t *testing.T) {
	m, heap := newHeap(t, 1)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	if err := m.StoreCap(heap, heapBase, obj); err != nil {
		t.Fatal(err)
	}
	noCaps := heap.ClearPerms(cap.PermLoadCap)
	got, err := m.LoadCap(noCaps, heapBase)
	if err != nil {
		t.Fatalf("LoadCap: %v", err)
	}
	if got.Tag() {
		t.Error("tag survived load without PermLoadCap")
	}
	// The in-memory tag itself is untouched.
	if tag, _ := m.Tag(heapBase); !tag {
		t.Error("in-memory tag should persist")
	}
}

func TestStoreCapPermissions(t *testing.T) {
	m, heap := newHeap(t, 1)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	noStoreCap := heap.ClearPerms(cap.PermStoreCap)
	if err := m.StoreCap(noStoreCap, heapBase, obj); !errors.Is(err, cap.ErrPermission) {
		t.Errorf("StoreCap without PermStoreCap: got %v", err)
	}
	// Storing an untagged capability image needs only PermStore.
	if err := m.StoreCap(noStoreCap, heapBase, obj.ClearTag()); err != nil {
		t.Errorf("untagged StoreCap: %v", err)
	}
	// Local (non-global) capabilities need PermStoreLocalCap.
	local := obj.ClearPerms(cap.PermGlobal)
	noLocal := heap.ClearPerms(cap.PermStoreLocalCap)
	if err := m.StoreCap(noLocal, heapBase, local); !errors.Is(err, cap.ErrPermission) {
		t.Errorf("local StoreCap without PermStoreLocalCap: got %v", err)
	}
	if err := m.StoreCap(heap, heapBase, local); err != nil {
		t.Errorf("local StoreCap with full perms: %v", err)
	}
}

func TestClearTagRevokes(t *testing.T) {
	m, heap := newHeap(t, 1)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	if err := m.StoreCap(heap, heapBase, obj); err != nil {
		t.Fatal(err)
	}
	if err := m.ClearTag(heapBase); err != nil {
		t.Fatal(err)
	}
	got, _ := m.LoadCap(heap, heapBase)
	if got.Tag() {
		t.Fatal("tag survived ClearTag")
	}
	// Data must be intact: only the tag is gone.
	lo, _ := m.RawLoadWord(heapBase)
	wantLo, _ := obj.Encode()
	if lo != wantLo {
		t.Error("ClearTag corrupted data")
	}
}

// TestRevokedDataReadsBack revokes a capability in every line of a page and
// reads each granule back through every accessor: only the tag is gone,
// both words survive.
func TestRevokedDataReadsBack(t *testing.T) {
	m, heap := newHeap(t, 1)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	for l := uint64(0); l < LinesPerPage; l++ {
		addr := heapBase + l*LineSize + l%GranulesPerLine*GranuleSize
		c := obj.SetAddr(heapBase + 0x100 + l%64)
		if err := m.StoreCap(heap, addr, c); err != nil {
			t.Fatal(err)
		}
		if err := m.ClearTag(addr); err != nil {
			t.Fatal(err)
		}
		lo, hi := c.Encode()
		if got, _ := m.LoadCap(heap, addr); got != c.ClearTag() {
			t.Fatalf("line %d: LoadCap after revocation = %v, want %v", l, got, c.ClearTag())
		}
		if got, _ := m.RawLoadCap(addr); got != c.ClearTag() {
			t.Fatalf("line %d: RawLoadCap after revocation = %v, want %v", l, got, c.ClearTag())
		}
		w0, _ := m.RawLoadWord(addr)
		w1, _ := m.RawLoadWord(addr + WordSize)
		if w0 != lo || w1 != hi {
			t.Fatalf("line %d: words %#x %#x after revocation, want %#x %#x", l, w0, w1, lo, hi)
		}
		v, _ := m.PageView(heapBase)
		if vlo, vhi, tag := v.Granule(uint(addr % PageSize / GranuleSize)); vlo != lo || vhi != hi || tag {
			t.Fatalf("line %d: view reads %#x %#x %v after revocation, want %#x %#x false", l, vlo, vhi, tag, lo, hi)
		}
	}
}

// TestFirstStoreHostCost bounds the host memory one capability store into
// each page of a 4096-page heap allocates: a line table and one line per
// page, plus at most one block of each kind left partly unused.
func TestFirstStoreHostCost(t *testing.T) {
	const pages = 4096
	m, heap := newHeap(t, pages)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := uint64(0); p < pages; p++ {
		if err := m.StoreCap(heap, heapBase+p*PageSize+0x40, obj); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	limit := pages*(unsafe.Sizeof(lineTable{})+unsafe.Sizeof(line{})) +
		unsafe.Sizeof(tableBlock{}) + unsafe.Sizeof(lineBlock{})
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(limit) {
		t.Errorf("one StoreCap into each of %d pages allocated %d B, want at most %d", pages, got, limit)
	}
	if !m.CheckTagInvariant() {
		t.Error("tag invariant violated")
	}
}

// TestPageViewSeesLinePoolGrowth takes a view of a written page, then
// stores enough lines elsewhere to add line blocks, and a new line into the
// viewed page: the view reads it.
func TestPageViewSeesLinePoolGrowth(t *testing.T) {
	const pages = 2 * lineBlockLines / LinesPerPage
	m, heap := newHeap(t, pages+1)
	if err := m.StoreWord(heap, heapBase, 1); err != nil {
		t.Fatal(err)
	}
	v, err := m.PageView(heapBase)
	if err != nil {
		t.Fatal(err)
	}
	blocks := len(m.lines)
	for a := heapBase + PageSize; a < heapBase+(pages+1)*PageSize; a += LineSize {
		if err := m.StoreWord(heap, a, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.StoreWord(heap, heapBase+PageSize-GranuleSize, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if len(m.lines) < blocks+2 {
		t.Fatalf("line blocks grew from %d to %d, want at least two more", blocks, len(m.lines))
	}
	if lo, _, _ := v.Granule(GranulesPerPage - 1); lo != 0xfeed {
		t.Errorf("view reads %#x from a line written after it was taken, want 0xfeed", lo)
	}
	if lo, _, _ := v.Granule(0); lo != 1 {
		t.Errorf("view reads %#x from the page's first line, want 1", lo)
	}
}

// TestUnmapReclaimsLines maps a page at a fresh address, writes one word
// of each of its lines and unmaps it, 2,000 times over, as a heap that
// unmaps every large free does. Each cycle reuses the line table and lines
// the last one gave back, zeroed, so the Memory holds the one block of
// each kind the first cycle needed, and every line reads only its new word.
func TestUnmapReclaimsLines(t *testing.T) {
	m := New()
	for c := uint64(0); c < 2000; c++ {
		base := heapBase + 2*c*PageSize
		if err := m.Map(base, PageSize); err != nil {
			t.Fatal(err)
		}
		w := c % lineWords
		for a := base; a < base+PageSize; a += LineSize {
			if err := m.RawStoreWord(a+w*WordSize, c+1); err != nil {
				t.Fatal(err)
			}
			for v := uint64(0); v < lineWords; v++ {
				want := uint64(0)
				if v == w {
					want = c + 1
				}
				if got, _ := m.RawLoadWord(a + v*WordSize); got != want {
					t.Fatalf("cycle %d: word %#x reads %#x, want %#x", c, a+v*WordSize, got, want)
				}
			}
		}
		if err := m.Unmap(base, PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if m.PageCount() != 0 || len(m.lines) > 2 || len(m.tables) > 2 {
		t.Errorf("after 2,000 map/write/unmap cycles: %d pages mapped, %d line blocks, %d table blocks; want 0, at most 2, at most 2",
			m.PageCount(), len(m.lines), len(m.tables))
	}
}

// TestPageSlotLayout pins a page slot at 40 bytes with no pointer for the
// garbage collector to scan: a heap maps one slot per page.
func TestPageSlotLayout(t *testing.T) {
	if n := unsafe.Sizeof(page{}); n != 40 {
		t.Errorf("page slot is %d bytes, want 40", n)
	}
	typ := reflect.TypeOf(page{})
	for i := range typ.NumField() {
		f := typ.Field(i).Type
		if f.Kind() == reflect.Array {
			f = f.Elem()
		}
		switch f.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Bool:
		default:
			t.Errorf("page field %s holds a %s", typ.Field(i).Name, f.Kind())
		}
	}
}

func TestCLoadTags(t *testing.T) {
	m, heap := newHeap(t, 1)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	// Tag granules 0 and 3 of the line at heapBase.
	if err := m.StoreCap(heap, heapBase, obj); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreCap(heap, heapBase+48, obj); err != nil {
		t.Fatal(err)
	}
	mask, err := m.CLoadTags(heapBase)
	if err != nil {
		t.Fatalf("CLoadTags: %v", err)
	}
	if mask != 0b1001 {
		t.Errorf("CLoadTags = %#b, want 0b1001", mask)
	}
	if mask, _ := m.CLoadTags(heapBase + LineSize); mask != 0 {
		t.Errorf("empty line CLoadTags = %#b, want 0", mask)
	}
	if _, err := m.CLoadTags(heapBase + 8); !errors.Is(err, ErrAlign) {
		t.Errorf("unaligned CLoadTags: got %v", err)
	}
	if m.Stats().TagProbes != 2 {
		t.Errorf("TagProbes = %d, want 2", m.Stats().TagProbes)
	}
}

func TestCapDirtyPagesAndLaunder(t *testing.T) {
	m, heap := newHeap(t, 4)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	// Dirty pages 1 and 3.
	if err := m.StoreCap(heap, heapBase+PageSize, obj); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreCap(heap, heapBase+3*PageSize, obj); err != nil {
		t.Fatal(err)
	}
	dirty := m.AppendCapDirtyPages(nil)
	want := []uint64{heapBase + PageSize, heapBase + 3*PageSize}
	if len(dirty) != 2 || dirty[0] != want[0] || dirty[1] != want[1] {
		t.Fatalf("CapDirtyPages = %#x, want %#x", dirty, want)
	}
	// Revoke the only capability on page 1; laundering should clean it.
	if err := m.ClearTag(heapBase + PageSize); err != nil {
		t.Fatal(err)
	}
	cleaned, err := m.LaunderCapDirty(heapBase + PageSize)
	if err != nil || !cleaned {
		t.Fatalf("LaunderCapDirty = %v, %v", cleaned, err)
	}
	if cleaned, _ := m.LaunderCapDirty(heapBase + 3*PageSize); cleaned {
		t.Error("laundered a page still holding a capability")
	}
	if got := m.AppendCapDirtyPages(nil); len(got) != 1 || got[0] != want[1] {
		t.Errorf("after launder: %#x", got)
	}
}

func TestPageDensityCounters(t *testing.T) {
	m, heap := newHeap(t, 1)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	addrs := []uint64{heapBase, heapBase + 16, heapBase + 128, heapBase + 1024}
	for _, a := range addrs {
		if err := m.StoreCap(heap, a, obj); err != nil {
			t.Fatal(err)
		}
	}
	v, err := m.PageView(heapBase)
	if err != nil {
		t.Fatal(err)
	}
	if n := v.CapCount(); n != 4 {
		t.Errorf("CapCount = %d, want 4", n)
	}
	// Lines: granules 0,1 share line 0; 128 is line 2; 1024 is line 16.
	if n := v.CapLines(); n != 3 {
		t.Errorf("CapLines = %d, want 3", n)
	}
	if !m.CheckTagInvariant() {
		t.Error("tag invariant violated")
	}
}

func TestQuickTagAccounting(t *testing.T) {
	// Random interleavings of cap stores, data stores and tag clears must
	// keep the per-page capCount consistent with the bitmap.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New()
		if err := m.Map(heapBase, 2*PageSize); err != nil {
			return false
		}
		root := cap.MustRoot(0, 1<<48)
		heap, _ := root.SetBoundsExact(heapBase, 2*PageSize)
		obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
		for i := 0; i < 200; i++ {
			addr := heapBase + uint64(r.Intn(2*PageSize/GranuleSize))*GranuleSize
			switch r.Intn(3) {
			case 0:
				if err := m.StoreCap(heap, addr, obj); err != nil {
					return false
				}
			case 1:
				if err := m.StoreWord(heap, addr, r.Uint64()); err != nil {
					return false
				}
			case 2:
				if err := m.ClearTag(addr); err != nil {
					return false
				}
			}
		}
		return m.CheckTagInvariant()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
