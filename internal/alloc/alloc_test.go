package alloc

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

const heapBase = uint64(0x10000000)

func newAlloc(t *testing.T) *Allocator {
	t.Helper()
	a, err := New(mem.New(), heapBase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMallocBasics(t *testing.T) {
	a := newAlloc(t)
	addr, padded, err := a.Malloc(24)
	if err != nil {
		t.Fatal(err)
	}
	if addr%Granule != 0 {
		t.Errorf("addr %#x not granule-aligned", addr)
	}
	if padded != 32 {
		t.Errorf("padded = %d, want 32", padded)
	}
	if a.LiveBytes() != 32 || a.LiveCount() != 1 {
		t.Errorf("live = %d bytes / %d allocs", a.LiveBytes(), a.LiveCount())
	}
	if s, ok := a.SizeOf(addr); !ok || s != 32 {
		t.Errorf("SizeOf = %d, %v", s, ok)
	}
	// Zero-size mallocs return a minimal chunk, like malloc(0).
	if _, padded, err = a.Malloc(0); err != nil || padded != Granule {
		t.Errorf("Malloc(0) padded = %d, err %v", padded, err)
	}
}

func TestMallocRejectsSizesBeyondHeapCap(t *testing.T) {
	a := newAlloc(t)
	for _, size := range []uint64{math.MaxUint64, math.MaxUint64 - 7, MaxHeapBytes + 1} {
		if _, _, err := a.Malloc(size); !errors.Is(err, ErrOOM) {
			t.Errorf("Malloc(%#x) err = %v, want ErrOOM", size, err)
		}
	}
	if s := a.Stats(); s.Mallocs != 0 || s.HeapGrows != 0 {
		t.Errorf("rejected mallocs left stats %+v", s)
	}
}

func TestMallocMapsSimulatedPages(t *testing.T) {
	m := mem.New()
	a, err := New(m, heapBase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr, _, err := a.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Mapped(addr) {
		t.Error("allocation address not backed by a mapped page")
	}
}

func TestFreeRecycles(t *testing.T) {
	a := newAlloc(t)
	addr, _, _ := a.Malloc(64)
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	addr2, _, _ := a.Malloc(64)
	if addr2 != addr {
		t.Errorf("freed chunk not reused: got %#x, want %#x", addr2, addr)
	}
}

func TestDoubleFree(t *testing.T) {
	a := newAlloc(t)
	addr, _, _ := a.Malloc(64)
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(addr); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free: got %v", err)
	}
	if err := a.Free(heapBase + 0x999000); !errors.Is(err, ErrBadFree) {
		t.Errorf("wild free: got %v", err)
	}
}

// TestBadFreesOfPlanes: only an allocation's exact start frees it. An
// interior, unaligned or out-of-heap address, or a chunk already released to
// quarantine, returns ErrBadFree and leaves the allocation live.
func TestBadFreesOfPlanes(t *testing.T) {
	a := newAlloc(t)
	p, size, err := a.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	q, _, _ := a.Malloc(64)
	for _, addr := range []uint64{p + 16, p + size - 16, p + 1, heapBase - 16, a.limit, a.limit + 1<<20} {
		if err := a.Free(addr); !errors.Is(err, ErrBadFree) {
			t.Errorf("Free(%#x) with %#x+%#x live: got %v, want ErrBadFree", addr, p, size, err)
		}
	}
	if got, ok := a.SizeOf(p); !ok || got != size {
		t.Fatalf("SizeOf(%#x) = %d, %v after bad frees; want %d", p, got, ok, size)
	}
	if _, err := a.Release(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrBadFree) {
		t.Errorf("Free of a released chunk: got %v, want ErrBadFree", err)
	}
	if _, err := a.Release(p); !errors.Is(err, ErrBadFree) {
		t.Errorf("Release of a released chunk: got %v, want ErrBadFree", err)
	}
	if got, ok := a.SizeOf(q); !ok || got != 64 {
		t.Errorf("neighbour SizeOf = %d, %v; want 64", got, ok)
	}
	must(t, a.CheckInvariants())
}

// TestSizeOfSpansManyPlaneWords: a plane word covers 1 KiB, so a 1 MiB
// allocation's last granule lies 1024 words past its first, and the scan
// for it must not stop at a neighbour's.
func TestSizeOfSpansManyPlaneWords(t *testing.T) {
	a := newAlloc(t)
	before, _, _ := a.Malloc(48)
	big, size, err := a.Malloc(1<<20 + 16)
	if err != nil {
		t.Fatal(err)
	}
	after, _, _ := a.Malloc(16)
	if got, ok := a.SizeOf(big); !ok || got != size || size != 1<<20+16 {
		t.Errorf("SizeOf(big) = %d, %v; want %d", got, ok, uint64(1<<20+16))
	}
	for addr, want := range map[uint64]uint64{before: 48, after: 16} {
		if got, ok := a.SizeOf(addr); !ok || got != want {
			t.Errorf("SizeOf(%#x) = %d, %v; want %d", addr, got, ok, want)
		}
	}
	if got, err := a.Release(big); err != nil || got != size {
		t.Fatalf("Release(big) = %d, %v", got, err)
	}
	if _, ok := a.SizeOf(big); ok {
		t.Error("SizeOf a released allocation succeeded")
	}
	var spans [][2]uint64
	a.ForEachLive(func(addr, size uint64) { spans = append(spans, [2]uint64{addr, size}) })
	if want := [][2]uint64{{before, 48}, {after, 16}}; !slices.Equal(spans, want) {
		t.Errorf("ForEachLive = %#x, want %#x in address order", spans, want)
	}
	must(t, a.CheckInvariants())
}

// TestCheckInvariantsRecountsPlanes: CheckInvariants catches live planes
// that disagree with themselves or with the live byte count.
func TestCheckInvariantsRecountsPlanes(t *testing.T) {
	a := newAlloc(t)
	p, _, _ := a.Malloc(256)
	must(t, a.CheckInvariants())
	a.live.Add(p+64, 16) // a span starting inside a live allocation
	if err := a.CheckInvariants(); err == nil {
		t.Error("a span nested in a live allocation passed CheckInvariants")
	}

	a = newAlloc(t)
	_, _, _ = a.Malloc(256)
	free, _, _ := a.Malloc(64)
	must(t, a.Free(free))
	a.live.Add(free, 64) // live and free at once, and not in liveSize
	if err := a.CheckInvariants(); err == nil {
		t.Error("a live span over a free chunk passed CheckInvariants")
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	a := newAlloc(t)
	// Three adjacent allocations.
	p1, _, _ := a.Malloc(64)
	p2, _, _ := a.Malloc(64)
	p3, _, _ := a.Malloc(64)
	if p2 != p1+64 || p3 != p2+64 {
		t.Fatalf("allocations not adjacent: %#x %#x %#x", p1, p2, p3)
	}
	// Free outer two, then middle: all three must coalesce.
	must(t, a.Free(p1))
	must(t, a.Free(p3))
	must(t, a.Free(p2))
	if a.stats.Coalesces < 2 {
		t.Errorf("Coalesces = %d, want >= 2", a.stats.Coalesces)
	}
	// A 192-byte request must fit in the coalesced chunk without growth.
	grows := a.stats.HeapGrows
	big, _, err := a.Malloc(192)
	if err != nil {
		t.Fatal(err)
	}
	if big != p1 {
		t.Errorf("coalesced chunk not reused: got %#x, want %#x", big, p1)
	}
	if a.stats.HeapGrows != grows {
		t.Error("heap grew despite coalesced free space")
	}
}

func TestBestFitPrefersSmallBins(t *testing.T) {
	a := newAlloc(t)
	small, _, _ := a.Malloc(32)
	_, _, _ = a.Malloc(16) // spacer so chunks do not coalesce
	large, _, _ := a.Malloc(1024)
	must(t, a.Free(small))
	must(t, a.Free(large))
	// A 32-byte request must take the 32-byte chunk, not carve the 1 KiB.
	got, _, _ := a.Malloc(32)
	if got != small {
		t.Errorf("got %#x, want the small chunk %#x", got, small)
	}
}

func TestMallocAligned(t *testing.T) {
	a := newAlloc(t)
	_, _, _ = a.Malloc(48) // misalign the heap top
	mask := ^uint64(1<<12 - 1)
	addr, _, err := a.MallocAligned(1<<12, mask)
	if err != nil {
		t.Fatal(err)
	}
	if addr&^mask != 0 {
		t.Errorf("addr %#x not 4 KiB aligned", addr)
	}
	must(t, a.CheckInvariants())
	// The skipped head must still be allocatable.
	small, _, _ := a.Malloc(16)
	if small >= addr {
		t.Errorf("head gap not reused: small alloc at %#x, aligned at %#x", small, addr)
	}
}

func TestReleaseAndFreeRange(t *testing.T) {
	a := newAlloc(t)
	p1, s1, _ := a.Malloc(64)
	p2, s2, _ := a.Malloc(64)
	sz, err := a.Release(p1)
	if err != nil || sz != s1 {
		t.Fatalf("Release = %d, %v", sz, err)
	}
	if a.LiveCount() != 1 {
		t.Errorf("LiveCount = %d", a.LiveCount())
	}
	// Released memory is NOT reusable until FreeRange (quarantine model).
	p3, _, _ := a.Malloc(64)
	if p3 == p1 {
		t.Fatal("released chunk reused before FreeRange")
	}
	if _, err := a.Release(p2); err != nil {
		t.Fatal(err)
	}
	a.FreeRange(p1, s1)
	a.FreeRange(p2, s2) // coalesces with p1's range
	got, _, _ := a.Malloc(128)
	if got != p1 {
		t.Errorf("coalesced drained range not reused: got %#x, want %#x", got, p1)
	}
	must(t, a.CheckInvariants())
}

func TestHeapGrowth(t *testing.T) {
	a := newAlloc(t)
	_, _, err := a.Malloc(3 * growQuantum)
	if err != nil {
		t.Fatal(err)
	}
	if a.MappedBytes() < 3*growQuantum {
		t.Errorf("MappedBytes = %d", a.MappedBytes())
	}
	if a.HeapBytes() < 3*growQuantum {
		t.Errorf("HeapBytes = %d", a.HeapBytes())
	}
	if a.stats.PeakHeap != a.HeapBytes() {
		t.Errorf("PeakHeap = %d, want %d", a.stats.PeakHeap, a.HeapBytes())
	}
}

func TestBinForClasses(t *testing.T) {
	cases := []struct {
		size uint64
		bin  int
	}{
		{16, 0},
		{32, 1},
		{512, 31},
		{513, nSmallBins},
		{1024, nSmallBins},
		{1025, nSmallBins + 1},
		{1 << 20, nSmallBins + 10},
	}
	for _, c := range cases {
		if got := binFor(c.size); got != c.bin {
			t.Errorf("binFor(%d) = %d, want %d", c.size, got, c.bin)
		}
	}
}

func TestQuickMallocFreeChurn(t *testing.T) {
	// Random malloc/free interleavings keep the allocator consistent and
	// never hand out overlapping chunks.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, err := New(mem.New(), heapBase, Options{})
		if err != nil {
			return false
		}
		type span struct{ addr, size uint64 }
		var liveList []span
		for i := 0; i < 400; i++ {
			if len(liveList) == 0 || r.Intn(3) != 0 {
				size := uint64(1 + r.Intn(2048))
				addr, padded, err := a.Malloc(size)
				if err != nil {
					return false
				}
				for _, s := range liveList {
					if addr < s.addr+s.size && s.addr < addr+padded {
						t.Logf("overlap: new [%#x,+%#x) vs live [%#x,+%#x)", addr, padded, s.addr, s.size)
						return false
					}
				}
				liveList = append(liveList, span{addr, padded})
			} else {
				i := r.Intn(len(liveList))
				if err := a.Free(liveList[i].addr); err != nil {
					return false
				}
				liveList = append(liveList[:i], liveList[i+1:]...)
			}
		}
		return a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickDrainCycle(t *testing.T) {
	// Release-all / FreeRange-all cycles must return the heap to a state
	// where everything is reusable (no leak of address space).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, err := New(mem.New(), heapBase, Options{})
		if err != nil {
			return false
		}
		for round := 0; round < 5; round++ {
			type span struct{ addr, size uint64 }
			var spans []span
			for i := 0; i < 100; i++ {
				addr, padded, err := a.Malloc(uint64(1 + r.Intn(512)))
				if err != nil {
					return false
				}
				spans = append(spans, span{addr, padded})
			}
			for _, s := range spans {
				if _, err := a.Release(s.addr); err != nil {
					return false
				}
			}
			for _, s := range spans {
				a.FreeRange(s.addr, s.size)
			}
			if a.LiveBytes() != 0 {
				return false
			}
		}
		if err := a.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		// All heap bytes must be back on the free lists.
		return a.FreeBytes() == a.HeapBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
