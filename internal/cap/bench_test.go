package cap_test

import (
	"testing"

	"repro/internal/cap"
	"repro/internal/mem"
)

// BenchmarkCapabilityOps measures the raw capability substrate: bounds
// compression round trips and checked memory operations.
func BenchmarkCapabilityOps(b *testing.B) {
	root := cap.MustRoot(0, 1<<48)
	b.Run("setbounds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := root.SetBounds(uint64(i%1024)*4096+0x10000000, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-decode", func(b *testing.B) {
		c, _ := root.SetBounds(0x10000000, 4096)
		for i := 0; i < b.N; i++ {
			lo, hi := c.Encode()
			c = cap.Decode(lo, hi, true)
		}
	})
	b.Run("checked-store", func(b *testing.B) {
		m := mem.New()
		if err := m.Map(0x10000000, 1<<20); err != nil {
			b.Fatal(err)
		}
		c, _ := root.SetBounds(0x10000000, 1<<20)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.StoreWord(c, 0x10000000+uint64(i%4096)*8, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
