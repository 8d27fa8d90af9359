package shadow

import (
	"testing"

	"repro/internal/quarantine"
)

// BenchmarkAblationPainting compares the run-optimised shadow-map painter
// (§5.2: byte/word stores for aligned runs) against the naive per-bit
// painter, on the chunk-size mixture of a small-object workload.
func BenchmarkAblationPainting(b *testing.B) {
	const base, size = uint64(0x10000000), uint64(32 << 20)
	chunks := make([]quarantine.Chunk, 0, 4096)
	addr := base
	for i := 0; addr+4096 < base+size; i++ {
		sz := uint64(16 + i%64*16)
		chunks = append(chunks, quarantine.Chunk{Addr: addr, Size: sz})
		addr += sz + 16
	}
	b.Run("optimised", func(b *testing.B) {
		m, _ := New(base, size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range chunks {
				if err := m.Paint(c.Addr, c.Size); err != nil {
					b.Fatal(err)
				}
			}
			m.ClearAll()
		}
		b.ReportMetric(float64(len(chunks)), "chunks/op")
	})
	b.Run("naive", func(b *testing.B) {
		m, _ := New(base, size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range chunks {
				if err := m.PaintNaive(c.Addr, c.Size); err != nil {
					b.Fatal(err)
				}
			}
			m.ClearAll()
		}
		b.ReportMetric(float64(len(chunks)), "chunks/op")
	})
}
