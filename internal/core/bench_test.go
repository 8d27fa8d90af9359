package core

import "testing"

// mallocMix is BenchmarkMalloc's fixed mix of request sizes: granule-sized
// through page-sized objects and one large enough (over 512 KiB) that its
// bounds need representable alignment.
var mallocMix = []uint64{16, 48, 100, 256, 640, 1500, 4096, 12000, 65536, 1 << 20}

// BenchmarkMalloc measures one Malloc and one FreeAddr in ns/op: a ring of
// 256 live allocations from mallocMix, each op freeing the oldest and
// allocating the next size, on a DirectFree system so no free quarantines
// or sweeps. The ring is filled before the timer starts, so the heap is
// near its steady size; the few bytes an op reports are the allocator's
// bins growing (0 allocs/op).
func BenchmarkMalloc(b *testing.B) {
	s, err := New(Config{DirectFree: true})
	if err != nil {
		b.Fatal(err)
	}
	var ring [256]uint64
	for i := range ring {
		c, err := s.Malloc(mallocMix[i%len(mallocMix)])
		if err != nil {
			b.Fatal(err)
		}
		ring[i] = c.Base()
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		k := i % len(ring)
		if err := s.FreeAddr(ring[k]); err != nil {
			b.Fatal(err)
		}
		c, err := s.Malloc(mallocMix[i%len(mallocMix)])
		if err != nil {
			b.Fatal(err)
		}
		ring[k] = c.Base()
		i++
	}
}
