package mem

import (
	"testing"

	"repro/internal/cap"
)

// BenchmarkMap maps one allocator grow quantum (64 pages, 256 KiB) on a
// fresh Memory; allocs/op counts the host objects a quantum costs.
func BenchmarkMap(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if err := New().Map(0x10000000, 64*PageSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstStore times the first StoreCap into each page of a fresh
// 64-page grow quantum, the store that gives a page its words, and reports
// ns per page; allocs/op counts the host objects the 64 stores cost. The
// New and Map of each quantum are not timed.
func BenchmarkFirstStore(b *testing.B) {
	const pages = 64
	heap, err := cap.MustRoot(0, 1<<48).SetBoundsExact(heapBase, pages*PageSize)
	if err != nil {
		b.Fatal(err)
	}
	obj, _ := heap.SetBoundsExact(heapBase+0x100, 64)
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		m := New()
		if err := m.Map(heapBase, pages*PageSize); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for p := uint64(0); p < pages; p++ {
			if err := m.StoreCap(heap, heapBase+p*PageSize+0x40, obj); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
}

// BenchmarkCapDirtyPages lists the CapDirty pages of a 4096-page heap in
// which every other page holds a capability, as a CapDirty sweep does
// before each pass, and reports ns per mapped page.
func BenchmarkCapDirtyPages(b *testing.B) {
	const pages = 4096
	m := New()
	if err := m.Map(heapBase, pages*PageSize); err != nil {
		b.Fatal(err)
	}
	obj, err := cap.MustRoot(0, 1<<48).SetBoundsExact(heapBase, 64)
	if err != nil {
		b.Fatal(err)
	}
	for p := uint64(0); p < pages; p += 2 {
		if err := m.RawStoreCap(heapBase+p*PageSize, obj); err != nil {
			b.Fatal(err)
		}
	}
	buf := m.AppendCapDirtyPages(nil)
	for b.Loop() {
		buf = m.AppendCapDirtyPages(buf[:0])
	}
	if len(buf) != pages/2 {
		b.Fatalf("listed %d CapDirty pages, want %d", len(buf), pages/2)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
}
