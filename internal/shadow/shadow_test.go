package shadow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const base = uint64(0x10000000)

func newMap(t *testing.T, size uint64) *Map {
	t.Helper()
	m, err := New(base, size)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(base+1, 1024); err == nil {
		t.Error("unaligned base accepted")
	}
	if _, err := New(base, 1000); err == nil {
		t.Error("unaligned size accepted")
	}
}

func TestShadowFootprint(t *testing.T) {
	m := newMap(t, 1<<20)
	// One bit per 16 bytes: 1 MiB heap -> 8 KiB shadow = 1/128.
	if got := m.SizeBytes(); got != 1<<20/128 {
		t.Errorf("SizeBytes = %d, want %d", got, 1<<20/128)
	}
}

func TestPaintLookupClear(t *testing.T) {
	m := newMap(t, 1<<16)
	if err := m.Paint(base+256, 128); err != nil {
		t.Fatalf("Paint: %v", err)
	}
	for a := base + 256; a < base+384; a += Granule {
		if !m.IsRevoked(a) {
			t.Errorf("granule at %#x not painted", a)
		}
	}
	// Interior (non-granule-aligned) addresses map to their granule.
	if !m.IsRevoked(base + 300) {
		t.Error("mid-granule lookup failed")
	}
	if m.IsRevoked(base+255) || m.IsRevoked(base+384) {
		t.Error("paint bled outside the range")
	}
	if err := m.Clear(base+256, 128); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if m.IsRevoked(base + 256) {
		t.Error("granule survived Clear")
	}
}

func TestLookupOutsideRegion(t *testing.T) {
	m := newMap(t, 1<<16)
	if m.IsRevoked(base-16) || m.IsRevoked(base+1<<16) || m.IsRevoked(0) {
		t.Error("addresses outside the covered region must never read revoked")
	}
}

func TestPaintBoundsChecked(t *testing.T) {
	m := newMap(t, 1<<16)
	if err := m.Paint(base-16, 32); err == nil {
		t.Error("paint below region accepted")
	}
	if err := m.Paint(base+1<<16-16, 32); err == nil {
		t.Error("paint beyond region accepted")
	}
	if err := m.Paint(base+8, 16); err == nil {
		t.Error("unaligned paint accepted")
	}
}

func TestPaintUsesWordStoresForLargeRuns(t *testing.T) {
	m := newMap(t, 1<<20)
	// 64 KiB = 4096 granules = 64 whole shadow words when aligned.
	if err := m.Paint(base, 64<<10); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.WordStores != 64 {
		t.Errorf("WordStores = %d, want 64", s.WordStores)
	}
	if s.BitStores != 0 {
		t.Errorf("BitStores = %d, want 0 for aligned run", s.BitStores)
	}
	if s.PaintedGranules != 4096 {
		t.Errorf("PaintedGranules = %d, want 4096", s.PaintedGranules)
	}
}

func TestPaintNaiveMatchesOptimised(t *testing.T) {
	a := newMap(t, 1<<16)
	b := newMap(t, 1<<16)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		off := uint64(r.Intn(1<<16/Granule-64)) * Granule
		size := uint64(1+r.Intn(63)) * Granule
		if err := a.Paint(base+off, size); err != nil {
			t.Fatal(err)
		}
		if err := b.PaintNaive(base+off, size); err != nil {
			t.Fatal(err)
		}
	}
	for g := uint64(0); g < 1<<16; g += Granule {
		if a.IsRevoked(base+g) != b.IsRevoked(base+g) {
			t.Fatalf("divergence at %#x", base+g)
		}
	}
	if a.PaintedGranules() != b.PaintedGranules() {
		t.Errorf("painted counts diverge: %d vs %d", a.PaintedGranules(), b.PaintedGranules())
	}
	// The optimised painter must not issue more stores than the naive one.
	sa, sb := a.Stats(), b.Stats()
	if sa.BitStores+sa.WordStores > sb.BitStores {
		t.Errorf("optimised stores %d > naive %d", sa.BitStores+sa.WordStores, sb.BitStores)
	}
}

// TestPaintZeroAlloc pins Paint and PaintNaive, over a mixture of 16-byte
// to 1 KiB chunks and each pass followed by ClearAll, at zero heap
// allocations: New and Grow allocate the map's words, nothing else does.
func TestPaintZeroAlloc(t *testing.T) {
	const size = 1 << 20
	m := newMap(t, size)
	var chunks [][2]uint64 // address, size
	for i, addr := 0, base; addr+4096 < base+size; i++ {
		sz := uint64(16 + i%64*16)
		chunks = append(chunks, [2]uint64{addr, sz})
		addr += sz + 16
	}
	for _, p := range []struct {
		name  string
		paint func(addr, size uint64) error
	}{{"Paint", m.Paint}, {"PaintNaive", m.PaintNaive}} {
		allocs := testing.AllocsPerRun(20, func() {
			for _, c := range chunks {
				if err := p.paint(c[0], c[1]); err != nil {
					t.Fatal(err)
				}
			}
			m.ClearAll()
		})
		if allocs != 0 {
			t.Errorf("%s of %d chunks and ClearAll allocate %.2f per pass, want 0", p.name, len(chunks), allocs)
		}
	}
}

func TestClearAll(t *testing.T) {
	m := newMap(t, 1<<16)
	if err := m.Paint(base, 1<<14); err != nil {
		t.Fatal(err)
	}
	m.ClearAll()
	if m.PaintedGranules() != 0 {
		t.Errorf("PaintedGranules = %d after ClearAll", m.PaintedGranules())
	}
	if m.IsRevoked(base) {
		t.Error("granule survived ClearAll")
	}
}

func TestGrowPreservesPaint(t *testing.T) {
	m := newMap(t, 1<<12)
	if err := m.Paint(base, 256); err != nil {
		t.Fatal(err)
	}
	if err := m.Grow(1 << 16); err != nil {
		t.Fatal(err)
	}
	if !m.IsRevoked(base) {
		t.Error("paint lost on Grow")
	}
	if err := m.Paint(base+1<<15, 256); err != nil {
		t.Errorf("paint in grown region: %v", err)
	}
	if m.Limit() != base+1<<16 {
		t.Errorf("Limit = %#x", m.Limit())
	}
}

func TestQuickPaintCountInvariant(t *testing.T) {
	// PaintedGranules must always equal the popcount of the bitmap.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, err := New(base, 1<<16)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			off := uint64(r.Intn(1<<16/Granule-64)) * Granule
			size := uint64(1+r.Intn(63)) * Granule
			var err error
			if r.Intn(2) == 0 {
				err = m.Paint(base+off, size)
			} else {
				err = m.Clear(base+off, size)
			}
			if err != nil {
				return false
			}
		}
		count := uint64(0)
		for g := uint64(0); g < 1<<16; g += Granule {
			if m.IsRevoked(base + g) {
				count++
			}
		}
		return count == m.PaintedGranules()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGrowInSmallStepsDoubles grows a map from empty to 16 MiB in 256 KiB
// steps, as the heap grows, painting a run in each new step. Every painted
// granule must survive, SizeBytes must count only the covered words, and
// the words may move only when their capacity doubles: 2 KiB to 128 KiB is
// seven allocations, plus the Map itself. append's growth for large slices,
// about ×1.25, took 12.
func TestGrowInSmallStepsDoubles(t *testing.T) {
	const step, size = 256 << 10, 16 << 20
	var m *Map
	allocs := testing.AllocsPerRun(1, func() {
		m, _ = New(base, 0)
		for n := uint64(step); n <= size; n += step {
			if err := m.Grow(n); err != nil {
				t.Fatal(err)
			}
			if err := m.Paint(base+n-step+48, 1<<10+16); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 1+7 {
		t.Errorf("%.0f allocations growing to %d MiB, want at most 8", allocs, size>>20)
	}
	if m.SizeBytes() != size/BytesPerShadowByte {
		t.Errorf("SizeBytes = %d, want %d", m.SizeBytes(), size/BytesPerShadowByte)
	}
	if got, want := m.Stats().PaintedGranules, uint64(size/step*(1<<10+16)/Granule); got != want {
		t.Errorf("PaintedGranules = %d, want %d", got, want)
	}
	for n := uint64(step); n <= size; n += step {
		lo, hi := base+n-step+48, base+n-step+48+1<<10+16
		if !m.IsRevoked(lo) || !m.IsRevoked(hi-Granule) || m.IsRevoked(lo-Granule) || m.IsRevoked(hi) {
			t.Errorf("paint of [%#x, %#x) not intact after growth", lo, hi)
		}
	}
}
