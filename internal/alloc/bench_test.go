package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cap"
	"repro/internal/mem"
)

// BenchmarkMallocFree measures one free and one malloc of steady-state
// churn: a live set of allocations, each iteration freeing a random one and
// allocating its replacement. The direct case frees straight to the bins;
// the quarantine case releases instead and recycles the released chunks with
// FreeRange once they reach a quarter of the live bytes, as CHERIvoke's
// sweeps do. A live set of 4096 keeps the allocator's tables in cache; one
// of 131072 does not.
func BenchmarkMallocFree(b *testing.B) {
	for _, liveSet := range []int{4096, 1 << 17} {
		b.Run(fmt.Sprintf("live=%d/direct", liveSet), func(b *testing.B) { benchChurn(b, liveSet, false) })
		b.Run(fmt.Sprintf("live=%d/quarantine", liveSet), func(b *testing.B) { benchChurn(b, liveSet, true) })
	}
}

// BenchmarkMallocGrow measures one malloc of a heap growing from empty, the
// start-up phase of every simulated run and the case churn rarely reaches:
// with nothing on the free lists, no bin at or above the request's class
// holds a fitting chunk, so the heap grows. The heap starts afresh every
// 4096 requests.
func BenchmarkMallocGrow(b *testing.B) {
	const liveSet = 4096
	reqs := benchRequests(liveSet)
	var a *Allocator
	var err error
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if i%liveSet == 0 {
			if a, err = New(mem.New(), heapBase); err != nil {
				b.Fatal(err)
			}
		}
		q := reqs[i%len(reqs)]
		if _, _, err = a.MallocAligned(q.size, q.mask); err != nil {
			b.Fatal(err)
		}
	}
}

type benchRequest struct{ size, mask, victim uint64 }

// benchRequests draws the benchmarks' requests, each with a victim slot in a
// live set of liveSet allocations. Sizes are lognormal around 128 bytes, as
// the workload generator draws them; one request in 64 is page-aligned, and
// one in 1024 is a large allocation at its capability-representable
// alignment, as core.Malloc places it.
func benchRequests(liveSet int) []benchRequest {
	r := rand.New(rand.NewSource(1))
	reqs := make([]benchRequest, 1<<14)
	for i := range reqs {
		q := &reqs[i]
		q.mask, q.victim = ^uint64(0), uint64(r.Intn(liveSet))
		switch n := r.Intn(1024); {
		case n == 0:
			q.size = cap.RepresentableLength(uint64(1<<20 + 16*r.Intn(1<<16)))
			q.mask = cap.RepresentableAlignmentMask(q.size)
		case n <= 16:
			q.size, q.mask = uint64(4096*(1+r.Intn(2))), ^uint64(mem.PageSize-1)
		default:
			q.size = uint64(math.Exp(math.Log(128) + r.NormFloat64()))
		}
	}
	return reqs
}

func benchChurn(b *testing.B, liveSet int, quarantine bool) {
	reqs := benchRequests(liveSet)
	a, err := New(mem.New(), heapBase)
	if err != nil {
		b.Fatal(err)
	}
	live := make([]uint64, liveSet)
	for i := range live {
		q := reqs[i%len(reqs)]
		if live[i], _, err = a.MallocAligned(q.size, q.mask); err != nil {
			b.Fatal(err)
		}
	}
	var released []binEntry
	var releasedBytes uint64
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		q := reqs[i%len(reqs)]
		if !quarantine {
			err = a.Free(live[q.victim])
		} else {
			var size uint64
			size, err = a.Release(live[q.victim])
			released = append(released, binEntry{live[q.victim], size})
			if releasedBytes += size; releasedBytes > a.LiveBytes()/4 {
				for _, e := range released {
					a.FreeRange(e.addr, e.size)
				}
				released, releasedBytes = released[:0], 0
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		if live[q.victim], _, err = a.MallocAligned(q.size, q.mask); err != nil {
			b.Fatal(err)
		}
	}
}
