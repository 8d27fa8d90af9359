package quarantine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BenchmarkQuarantineInsert measures one Insert of a churned free stream.
// A heap of allocations, lognormal sizes around 128 bytes laid end to end,
// is freed in random order; once the buffer holds a quarter of the live
// bytes it is drained and its chunks reallocated in place, as CHERIvoke's
// default policy drains it, so neighbours freed between two drains
// coalesce. The drain's cost is spread over the inserts. A live set of 4096
// keeps the buffer's tables in cache; one of 131072 does not.
func BenchmarkQuarantineInsert(b *testing.B) {
	for _, liveSet := range []int{4096, 1 << 17} {
		b.Run(fmt.Sprintf("live=%d", liveSet), func(b *testing.B) { benchInsert(b, liveSet) })
	}
}

func benchInsert(b *testing.B, liveSet int) {
	r := rand.New(rand.NewSource(1))
	chunks := make([]Chunk, liveSet)
	var heapBytes uint64
	for i := range chunks {
		size := uint64(math.Exp(math.Log(128)+r.NormFloat64())+15) &^ 15
		chunks[i] = Chunk{Addr: 0x10000 + heapBytes, Size: size}
		heapBytes += size
	}
	// live[:n] are the indices of the allocations not yet freed.
	live := make([]int, liveSet)
	for i := range live {
		live[i] = i
	}
	n := liveSet
	q, err := New(0x10000, heapBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		j := r.Intn(n)
		c := chunks[live[j]]
		n--
		live[j], live[n] = live[n], live[j]
		if err := q.Insert(c.Addr, c.Size); err != nil {
			b.Fatal(err)
		}
		if q.Bytes() > (heapBytes-q.Bytes())/4 {
			q.Drain()
			n = liveSet
		}
	}
}

// BenchmarkAblationCoalescing measures quarantine insertion with adjacent
// (coalescing) versus scattered (non-coalescing) free patterns — the
// batching effect of §6.1.1.
func BenchmarkAblationCoalescing(b *testing.B) {
	const n = 4096
	b.Run("adjacent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf, err := New(0x10000000, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			for j := uint64(0); j < n; j++ {
				if err := buf.Insert(0x10000000+j*64, 64); err != nil {
					b.Fatal(err)
				}
			}
			if got := buf.Len(); got != 1 {
				b.Fatalf("adjacent inserts left %d chunks", got)
			}
			b.ReportMetric(float64(n)/float64(buf.Stats().DrainedOut+uint64(buf.Len())), "frees-per-chunk")
			buf.Drain()
		}
	})
	b.Run("scattered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf, err := New(0x10000000, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			for j := uint64(0); j < n; j++ {
				if err := buf.Insert(0x10000000+j*128, 64); err != nil {
					b.Fatal(err)
				}
			}
			if got := buf.Len(); got != n {
				b.Fatalf("scattered inserts coalesced to %d chunks", got)
			}
			buf.Drain()
		}
	})
}
