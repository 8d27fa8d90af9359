package alloc

import (
	"testing"

	"repro/internal/mem"
)

func newTyped(t *testing.T) *Allocator {
	t.Helper()
	a, err := New(mem.New(), heapBase, Options{TypedReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTypedReuseSameClassOnly(t *testing.T) {
	a := newTyped(t)
	p, _, _ := a.Malloc(64)
	must(t, a.Free(p))
	// Same size: reused.
	q, _, _ := a.Malloc(64)
	if q != p {
		t.Errorf("same-class request not reused: got %#x, want %#x", q, p)
	}
	must(t, a.Free(q))
	// Different class: must NOT reuse the freed 64-byte chunk.
	r, _, _ := a.Malloc(32)
	if r == p {
		t.Error("cross-class reuse: 32-byte request got the freed 64-byte chunk")
	}
	must(t, a.CheckInvariants())
}

func TestTypedReuseNeverSplits(t *testing.T) {
	a := newTyped(t)
	big, _, _ := a.Malloc(4096)
	must(t, a.Free(big))
	// A smaller request in the same geometric bin class must not carve
	// the 4 KiB chunk.
	small, _, _ := a.Malloc(64)
	if small == big {
		t.Error("typed allocator split a freed chunk")
	}
	// The original size is still reusable intact.
	again, _, _ := a.Malloc(4096)
	if again != big {
		t.Errorf("exact-size reuse failed: got %#x, want %#x", again, big)
	}
}

func TestTypedReuseNeverCoalesces(t *testing.T) {
	a := newTyped(t)
	p1, _, _ := a.Malloc(64)
	p2, _, _ := a.Malloc(64)
	must(t, a.Free(p1))
	must(t, a.Free(p2))
	if a.stats.Coalesces != 0 {
		t.Errorf("typed allocator coalesced %d times", a.stats.Coalesces)
	}
	// A 128-byte request cannot use the two adjacent 64-byte chunks.
	q, _, _ := a.Malloc(128)
	if q == p1 {
		t.Error("typed allocator merged freed chunks")
	}
}

func TestTypedReuseFragmentationCost(t *testing.T) {
	// The price of type stability: a size-migrating workload grows the
	// heap where the classic allocator recycles. This is the trade-off
	// the Cling extension benchmark quantifies.
	classic := newAlloc(t)
	typed := newTyped(t)
	churn := func(a *Allocator) uint64 {
		for round := 0; round < 8; round++ {
			size := uint64(32 << round) // sizes migrate each round
			var addrs []uint64
			for i := 0; i < 64; i++ {
				p, _, err := a.Malloc(size)
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, p)
			}
			for _, p := range addrs {
				must(t, a.Free(p))
			}
		}
		return a.HeapBytes()
	}
	ch, th := churn(classic), churn(typed)
	if th <= ch {
		t.Errorf("typed heap %d not larger than classic %d under size migration", th, ch)
	}
}

func TestTypedReuseInvariantsUnderChurn(t *testing.T) {
	a := newTyped(t)
	var live []uint64
	for i := 0; i < 2000; i++ {
		if i%3 != 0 || len(live) == 0 {
			p, _, err := a.Malloc(uint64(16 * (1 + i%32)))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		} else {
			must(t, a.Free(live[len(live)-1]))
			live = live[:len(live)-1]
		}
	}
	must(t, a.CheckInvariants())
}
