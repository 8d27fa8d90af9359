package spanset

import (
	"maps"
	"testing"
)

const base = uint64(0x10000)

func grown(limit uint64) Set {
	s := New(base)
	s.Grow(limit)
	return s
}

func spans(s *Set) map[uint64]uint64 { return maps.Collect(s.All()) }

func TestAddRemoveAcrossWords(t *testing.T) {
	s := grown(base + 64<<10)
	// One span inside a word, one across a word boundary, and one spanning
	// many words, back to back.
	want := map[uint64]uint64{base: 48, base + 48: 2 << 10, base + 48 + 2<<10: 40 << 10}
	for addr, size := range want {
		s.Add(addr, size)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	for addr, size := range want {
		if got, ok := s.SizeAt(addr); !ok || got != size {
			t.Errorf("SizeAt(%#x) = %d, %v; want %d", addr, got, ok, size)
		}
	}
	if got := spans(&s); !maps.Equal(got, want) {
		t.Errorf("All = %#x, want %#x", got, want)
	}
	if _, ok := s.Remove(base + 64); ok {
		t.Error("Remove of an interior address succeeded")
	}
	if got, ok := s.Remove(base + 48); !ok || got != 2<<10 {
		t.Errorf("Remove = %d, %v", got, ok)
	}
	if _, ok := s.SizeAt(base + 48); ok || s.Len() != 2 {
		t.Errorf("removed span still present (Len %d)", s.Len())
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinMerges(t *testing.T) {
	s := grown(base + 4<<10)
	if m := s.Join(base+64, 64); m != 0 {
		t.Fatalf("first Join merged %d", m)
	}
	if m := s.Join(base+256, 64); m != 0 {
		t.Fatalf("disjoint Join merged %d", m)
	}
	if m := s.Join(base+128, 128); m != 2 {
		t.Fatalf("bridging Join merged %d, want 2", m)
	}
	if m := s.Join(base, 64); m != 1 {
		t.Fatalf("left-adjacent Join merged %d, want 1", m)
	}
	if got, want := spans(&s), map[uint64]uint64{base: 320}; !maps.Equal(got, want) {
		t.Errorf("All = %#x, want %#x", got, want)
	}
	if !s.StartsAt(base) || !s.EndsAt(base+320) || s.StartsAt(base+64) || s.EndsAt(base+128) {
		t.Error("merged span's boundary bits are wrong")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFindsBrokenPlanes(t *testing.T) {
	s := grown(base + 4<<10)
	s.Add(base, 256)
	s.Add(base+64, 16) // nested: starts inside another span
	if s.Check() == nil {
		t.Error("nested span passed Check")
	}
	s = grown(base + 4<<10)
	s.Add(base, 256)
	clr(s.last, 15) // a start with no end
	if s.Check() == nil {
		t.Error("unterminated span passed Check")
	}
}

func TestGrowKeepsSpansAndBounds(t *testing.T) {
	s := grown(base + 1<<10)
	s.Add(base+1<<10-32, 32)
	if s.Covers(base+1<<10, 16) || s.StartsAt(base+1<<10) {
		t.Error("address at the limit is covered")
	}
	s.Grow(base + 100<<10)
	s.Grow(base) // no-op
	if s.Limit() != base+100<<10 || !s.Covers(base+99<<10, 1<<10) {
		t.Errorf("Limit = %#x after Grow", s.Limit())
	}
	if got, ok := s.SizeAt(base + 1<<10 - 32); !ok || got != 32 {
		t.Errorf("span lost on Grow: %d, %v", got, ok)
	}
	if s.Covers(base+8, 16) || s.Covers(base-16, 16) || s.Covers(^uint64(0)&^15, 32) {
		t.Error("Covers accepted an unaligned, low or wrapping range")
	}
}

// TestGrowInSmallStepsDoubles grows a set from empty to 16 MiB in 256 KiB
// steps, as the allocator grows its heap, adding two spans in each new step.
// Every span must survive, and each plane may move only when its capacity
// doubles: 2 KiB to 128 KiB is seven allocations a plane. append's growth
// for large slices, about ×1.25, took 12 a plane.
func TestGrowInSmallStepsDoubles(t *testing.T) {
	const step, size = 256 << 10, 16 << 20
	var s Set
	allocs := testing.AllocsPerRun(1, func() {
		s = New(base)
		for limit := base + step; limit <= base+size; limit += step {
			s.Grow(limit)
			s.Add(limit-step+48, 1<<10+16) // crosses a plane word
			s.Add(limit-16, 16)            // ends at the limit
		}
	})
	if allocs > 2*7 {
		t.Errorf("%.0f plane allocations growing to %d MiB, want at most 14", allocs, size>>20)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2*size/step {
		t.Errorf("Len = %d, want %d", s.Len(), 2*size/step)
	}
	for limit := base + step; limit <= base+size; limit += step {
		if got, ok := s.SizeAt(limit - step + 48); !ok || got != 1<<10+16 {
			t.Errorf("span at %#x: %d, %v", limit-step+48, got, ok)
		}
		if got, ok := s.SizeAt(limit - 16); !ok || got != 16 {
			t.Errorf("span at %#x: %d, %v", limit-16, got, ok)
		}
	}
}
