package quarantine

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertAndBytes(t *testing.T) {
	b := newBuf(t)
	if err := b.Insert(0x1000, 64); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(0x2000, 32); err != nil {
		t.Fatal(err)
	}
	if b.Bytes() != 96 || b.Len() != 2 {
		t.Errorf("Bytes=%d Len=%d", b.Bytes(), b.Len())
	}
	if !b.Contains(0x1000) || !b.Contains(0x103F) || b.Contains(0x1040) {
		t.Error("Contains wrong")
	}
}

func TestInsertCoalescesRight(t *testing.T) {
	b := newBuf(t)
	must(t, b.Insert(0x1040, 64))
	must(t, b.Insert(0x1000, 64)) // ends exactly where the first starts
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (coalesced)", b.Len())
	}
	c := b.Chunks()[0]
	if c.Addr != 0x1000 || c.Size != 128 {
		t.Errorf("chunk = %+v", c)
	}
	if b.Stats().Coalesces != 1 {
		t.Errorf("Coalesces = %d", b.Stats().Coalesces)
	}
}

func TestInsertCoalescesBothSides(t *testing.T) {
	for _, base := range []uint64{0x1000, 0} {
		b := newBuf(t)
		must(t, b.Insert(base, 64))
		must(t, b.Insert(base+128, 64))
		must(t, b.Insert(base+64, 64)) // bridges the gap
		if b.Len() != 1 {
			t.Fatalf("base %#x: Len = %d, want 1", base, b.Len())
		}
		c := b.Chunks()[0]
		if c.Addr != base || c.Size != 192 {
			t.Errorf("base %#x: chunk = %+v", base, c)
		}
	}
}

func TestInsertRejectsOverlap(t *testing.T) {
	b := newBuf(t)
	must(t, b.Insert(0x1000, 64))
	if err := b.Insert(0x1000, 64); err == nil {
		t.Error("duplicate insert accepted (double free)")
	}
	if err := b.Insert(0x1000, 32); err == nil {
		t.Error("overlapping insert accepted")
	}

	// A rejected insert that would also have merged with its left
	// neighbour must leave the buffer as it was.
	b = newBuf(t)
	must(t, b.Insert(0x1000, 0x40))
	must(t, b.Insert(0x1060, 0x20))
	want := b.Chunks()
	if err := b.Insert(0x1040, 0x40); err == nil {
		t.Fatal("insert ending on a chunk's end accepted")
	}
	got := b.Chunks()
	if !slices.Equal(got, want) {
		t.Errorf("Chunks after rejected insert = %+v, want %+v", got, want)
	}
	var sum uint64
	for _, c := range got {
		sum += c.Size
	}
	if b.Bytes() != sum {
		t.Errorf("Bytes = %d, chunks sum to %d", b.Bytes(), sum)
	}
}

func TestInsertRejectsDegenerate(t *testing.T) {
	b := newBuf(t)
	if err := b.Insert(0x1000, 0); err == nil {
		t.Error("zero-size insert accepted")
	}
	if err := b.Insert(^uint64(0)-10, 64); err == nil {
		t.Error("wrapping insert accepted")
	}
}

func TestDrain(t *testing.T) {
	b := newBuf(t)
	must(t, b.Insert(0x1000, 64))
	must(t, b.Insert(0x3000, 64))
	got := b.Drain()
	if len(got) != 2 {
		t.Fatalf("Drain returned %d chunks", len(got))
	}
	if b.Bytes() != 0 || b.Len() != 0 {
		t.Error("buffer not empty after drain")
	}
	if b.Stats().Drains != 1 || b.Stats().DrainedOut != 2 {
		t.Errorf("stats = %+v", b.Stats())
	}
	// Re-inserting previously drained ranges must work.
	must(t, b.Insert(0x1000, 64))
}

func TestPolicyShouldDrain(t *testing.T) {
	p := Policy{Fraction: 0.25, MinBytes: 1024}
	if p.ShouldDrain(512, 1024) {
		t.Error("below MinBytes must not drain")
	}
	if p.ShouldDrain(1024, 100<<20) {
		t.Error("far below fraction must not drain")
	}
	if !p.ShouldDrain(25<<20, 100<<20) {
		t.Error("at fraction must drain")
	}
	if !p.ShouldDrain(26<<20, 100<<20) {
		t.Error("above fraction must drain")
	}
}

func TestQuickCoalescingPreservesBytesAndDisjointness(t *testing.T) {
	// Inserting random disjoint granule-aligned chunks must preserve
	// total bytes and produce disjoint, sorted, coalesced chunks.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := newBuf(t)
		used := map[uint64]bool{}
		var total uint64
		for i := 0; i < 100; i++ {
			g := uint64(r.Intn(256))
			n := uint64(1 + r.Intn(4))
			ok := true
			for j := uint64(0); j < n; j++ {
				if used[g+j] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for j := uint64(0); j < n; j++ {
				used[g+j] = true
			}
			if err := b.Insert(0x10000+g*16, n*16); err != nil {
				return false
			}
			total += n * 16
		}
		if b.Bytes() != total {
			return false
		}
		chunks := b.Chunks()
		sort.Slice(chunks, func(i, j int) bool { return chunks[i].Addr < chunks[j].Addr })
		var sum uint64
		for i, c := range chunks {
			sum += c.Size
			if i > 0 && chunks[i-1].End() >= c.Addr {
				// Adjacent chunks must have been coalesced;
				// overlap is outright corruption.
				return false
			}
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// newBuf returns an empty buffer covering the first MiB of addresses.
func newBuf(t testing.TB) *Buffer {
	t.Helper()
	b, err := New(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
