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
	q := New()
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
