package mem

import "testing"

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
