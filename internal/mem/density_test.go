package mem

import (
	"errors"
	"testing"

	"repro/internal/cap"
)

func TestDensityMeasurement(t *testing.T) {
	m, heap := newHeap(t, 4)
	if p, l := m.Density(); p != 0 || l != 0 {
		t.Errorf("empty heap density = %.2f/%.2f", p, l)
	}
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	// One capability on page 0, two lines' worth on page 2.
	if err := m.StoreCap(heap, heapBase, obj); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreCap(heap, heapBase+2*PageSize, obj); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreCap(heap, heapBase+2*PageSize+LineSize, obj); err != nil {
		t.Fatal(err)
	}
	page, line := m.Density()
	if page != 0.5 {
		t.Errorf("page density = %.3f, want 0.5", page)
	}
	want := 3.0 / float64(4*LinesPerPage)
	if line != want {
		t.Errorf("line density = %.4f, want %.4f", line, want)
	}
}

// TestPageViewMatchesArchitecturalAccessors checks that a PageView reads
// what CLoadTags and RawLoadCap read, for a touched and an untouched page,
// without moving the architectural event counters.
func TestPageViewMatchesArchitecturalAccessors(t *testing.T) {
	m, heap := newHeap(t, 2)
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	// Granules 4, 70, 133 and 255: one in each tag word, on lines 1, 17, 33
	// and 63.
	for _, off := range []uint64{0x40, 0x460, 0x850, 0xff0} {
		if err := m.StoreCap(heap, heapBase+off, obj); err != nil {
			t.Fatal(err)
		}
	}
	for _, base := range []uint64{heapBase, heapBase + PageSize} {
		before := m.Stats()
		v, err := m.PageView(base)
		if err != nil {
			t.Fatal(err)
		}
		var words []uint64
		var grans []cap.Capability
		for i := uint(0); i < GranulesPerPage/64; i++ {
			words = append(words, v.TagWord(i))
		}
		for g := uint(0); g < GranulesPerPage; g++ {
			lo, hi, tag := v.Granule(g)
			grans = append(grans, cap.Decode(lo, hi, tag))
		}
		// View reads must not perturb the architectural event counters.
		if m.Stats() != before {
			t.Errorf("view reads mutated stats: %+v -> %+v", before, m.Stats())
		}
		capLines := 0
		for line := uint(0); line < LinesPerPage; line++ {
			word := words[line/(64/GranulesPerLine)]
			want := uint8(word>>(line%(64/GranulesPerLine)*GranulesPerLine)) & (1<<GranulesPerLine - 1)
			mask, err := m.CLoadTags(base + uint64(line)*LineSize)
			if err != nil || mask != want {
				t.Errorf("page %#x line %d: tag word mask %#b, CLoadTags %#b, %v", base, line, want, mask, err)
			}
			if mask != 0 {
				capLines++
			}
		}
		if v.CapLines() != capLines {
			t.Errorf("page %#x: CapLines = %d, CLoadTags found %d lines", base, v.CapLines(), capLines)
		}
		for g := uint(0); g < GranulesPerPage; g++ {
			c, err := m.RawLoadCap(base + uint64(g)*GranuleSize)
			if err != nil || c != grans[g] {
				t.Errorf("page %#x granule %d: view %v, RawLoadCap %v, %v", base, g, grans[g], c, err)
			}
			if bit := words[g/64]>>(g%64)&1 != 0; bit != c.Tag() {
				t.Errorf("page %#x granule %d: tag word bit %v, tag %v", base, g, bit, c.Tag())
			}
		}
	}
	v, _ := m.PageView(heapBase)
	want := []uint64{1 << 4, 1 << 6, 1 << 5, 1 << 63}
	for i := range want {
		if w := v.TagWord(uint(i)); w != want[i] {
			t.Errorf("TagWord(%d) = %#x, want %#x", i, w, want[i])
		}
	}
	if lo, hi, tag := v.Granule(4); !tag || cap.Decode(lo, hi, tag) != obj {
		t.Errorf("Granule(4) = %v, want %v", cap.Decode(lo, hi, tag), obj)
	}
	if v.CapCount() != 4 || v.CapLines() != 4 {
		t.Errorf("CapCount = %d, CapLines = %d, want 4 and 4", v.CapCount(), v.CapLines())
	}
	// Alignment and mapping errors still apply.
	if _, err := m.PageView(heapBase + 8); !errors.Is(err, ErrAlign) {
		t.Errorf("unaligned PageView: %v", err)
	}
	if _, err := m.PageView(heapBase + 64*PageSize); !errors.Is(err, ErrUnmapped) {
		t.Errorf("unmapped PageView: %v", err)
	}
}

func TestStoreWordPermissionDenied(t *testing.T) {
	m, heap := newHeap(t, 1)
	ro := heap.ClearPerms(cap.PermStore)
	if err := m.StoreWord(ro, heapBase, 1); !errors.Is(err, cap.ErrPermission) {
		t.Errorf("read-only StoreWord: %v", err)
	}
	// Unaligned but authorised: alignment fault.
	if err := m.StoreWord(heap, heapBase+3, 1); !errors.Is(err, ErrAlign) {
		t.Errorf("unaligned StoreWord: %v", err)
	}
	// Raw accessors reject unaligned addresses too.
	if _, err := m.RawLoadWord(heapBase + 3); !errors.Is(err, ErrAlign) {
		t.Errorf("unaligned RawLoadWord: %v", err)
	}
}
