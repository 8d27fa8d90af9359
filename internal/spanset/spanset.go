// Package spanset records disjoint, granule-aligned address spans of a
// contiguous heap region in two bit-planes indexed by heap offset, as the
// revocation shadow map is (§3.2 of the paper): one bit per 16-byte granule
// marks the first granule of each span, and one the last. The allocator
// keeps its live allocations in one Set and the quarantine its chunks in
// another, in place of boundary tags inside the simulated heap.
//
// Setting, testing and clearing a boundary is O(1). A span's size comes from
// a word-at-a-time scan of the last-plane forward from its first granule,
// one word per KiB of the span. The planes cost two bits per granule of the
// covered region, whatever the number of spans, and walking them yields the
// spans in address order.
package spanset

import (
	"errors"
	"fmt"
	"iter"
	"math/bits"
)

// Granule is the span granule: 16 bytes, the allocation granule.
const Granule = 16

// Set is a set of disjoint spans within the covered region [Base, Limit).
// Its zero value covers nothing at base 0. A Set is not safe for concurrent
// use.
type Set struct {
	base  uint64
	limit uint64
	first []uint64 // bit g set: a span starts at granule g
	last  []uint64 // bit g set: a span ends with granule g
	n     int      // spans
}

// New returns an empty set covering nothing at base, which must be
// granule-aligned; Grow extends its coverage.
func New(base uint64) Set { return Set{base: base, limit: base} }

// Base returns the first address covered.
func (s *Set) Base() uint64 { return s.base }

// Limit returns the exclusive end of the covered region.
func (s *Set) Limit() uint64 { return s.limit }

// Len returns the number of spans.
func (s *Set) Len() int { return s.n }

// Grow extends coverage to [Base, limit); a limit at or below the current
// one is a no-op. A plane that has to move at least doubles its capacity, so
// a region grown in small steps copies each word about once in all.
func (s *Set) Grow(limit uint64) {
	if limit <= s.limit {
		return
	}
	s.limit = limit
	words := int(((limit-s.base)/Granule + 63) / 64)
	s.first = growPlane(s.first, words)
	s.last = growPlane(s.last, words)
}

// growPlane returns p extended to n words. When p has to move, its capacity
// at least doubles: append's growth for large slices, about ×1.25, would copy
// a plane grown in small steps several times over. Words past a plane's
// length are never written, so extending it in place exposes zeros.
func growPlane(p []uint64, n int) []uint64 {
	if n > cap(p) {
		p = append(make([]uint64, 0, max(n, 2*cap(p))), p...)
	}
	return p[:max(n, len(p))]
}

// Covers reports whether [addr, addr+size) is granule-aligned and lies
// inside the covered region.
func (s *Set) Covers(addr, size uint64) bool {
	return addr%Granule == 0 && size%Granule == 0 && addr >= s.base &&
		addr+size >= addr && addr+size <= s.limit
}

// StartsAt reports whether a span starts at addr.
func (s *Set) StartsAt(addr uint64) bool {
	return addr%Granule == 0 && addr >= s.base && addr < s.limit && test(s.first, s.granule(addr))
}

// EndsAt reports whether a span ends at the exclusive address end.
func (s *Set) EndsAt(end uint64) bool {
	return end%Granule == 0 && end > s.base && end <= s.limit && test(s.last, s.granule(end)-1)
}

// Add records the span [addr, addr+size), which must be nonempty, covered
// (Covers) and disjoint from every span in the set.
func (s *Set) Add(addr, size uint64) {
	set(s.first, s.granule(addr))
	set(s.last, s.granule(addr+size)-1)
	s.n++
}

// Join records [addr, addr+size) like Add, and merges it with a span that
// ends at addr and with one that starts at addr+size, in O(1): a left merge
// clears the neighbour's last bit, a right merge its first bit. It returns
// the number of merges, 0 to 2.
func (s *Set) Join(addr, size uint64) int {
	end := addr + size
	merges := 0
	if s.EndsAt(addr) {
		clr(s.last, s.granule(addr)-1)
		merges++
	} else {
		set(s.first, s.granule(addr))
	}
	if s.StartsAt(end) {
		clr(s.first, s.granule(end))
		merges++
	} else {
		set(s.last, s.granule(end)-1)
	}
	s.n += 1 - merges
	return merges
}

// SizeAt returns the size of the span that starts at addr, or ok=false when
// none does.
func (s *Set) SizeAt(addr uint64) (size uint64, ok bool) {
	if !s.StartsAt(addr) {
		return 0, false
	}
	g := s.granule(addr)
	return (s.lastFrom(g) + 1 - g) * Granule, true
}

// Remove deletes the span that starts at addr and returns its size, or
// ok=false, leaving the set unchanged, when no span starts at addr.
func (s *Set) Remove(addr uint64) (size uint64, ok bool) {
	if !s.StartsAt(addr) {
		return 0, false
	}
	g := s.granule(addr)
	l := s.lastFrom(g)
	clr(s.first, g)
	clr(s.last, l)
	s.n--
	return (l + 1 - g) * Granule, true
}

// All returns an iterator over the spans, as start address and size, in
// ascending address order. The set must not be modified while it runs.
func (s *Set) All() iter.Seq2[uint64, uint64] {
	return func(yield func(addr, size uint64) bool) {
		left := s.n
		for w := 0; left > 0; w++ {
			for word := s.first[w]; word != 0; word &= word - 1 {
				g := uint64(w)*64 + uint64(bits.TrailingZeros64(word))
				left--
				if !yield(s.base+g*Granule, (s.lastFrom(g)+1-g)*Granule) {
					return
				}
			}
		}
	}
}

// Clear removes every span, keeping the coverage.
func (s *Set) Clear() {
	clear(s.first)
	clear(s.last)
	s.n = 0
}

// Check recounts the planes: walking them in address order must alternate
// a first bit with a last bit at or after it, Len times, and leave no bit
// over. Tests call it after workloads.
func (s *Set) Check() error {
	starts, ends := 0, 0
	open := false // a first bit was seen and its last bit was not
	for w := range s.first {
		f, l := s.first[w], s.last[w]
		for f|l != 0 {
			// Visit the lower of the two next bits; at a tie the
			// first bit comes first (a one-granule span).
			fb, lb := bits.TrailingZeros64(f), bits.TrailingZeros64(l)
			g := uint64(w)*64 + uint64(min(fb, lb))
			if fb <= lb {
				if open {
					return fmt.Errorf("spanset: span at granule %d starts inside another", g)
				}
				open, starts, f = true, starts+1, f&(f-1)
			} else {
				if !open {
					return fmt.Errorf("spanset: span ending at granule %d has no start", g)
				}
				open, ends, l = false, ends+1, l&(l-1)
			}
		}
	}
	if open {
		return errors.New("spanset: the last span has no end")
	}
	if starts != s.n || ends != s.n {
		return fmt.Errorf("spanset: planes hold %d starts and %d ends, Len is %d", starts, ends, s.n)
	}
	return nil
}

// granule returns addr's granule index within the region.
func (s *Set) granule(addr uint64) uint64 { return (addr - s.base) / Granule }

// lastFrom returns the first granule at or after g that ends a span, one
// plane word (1 KiB of heap) per step. Every first bit has one: Add and
// Join set a last bit at or after each first bit they set, and a merge
// clears a last bit only where a later one remains, the new span's or that
// of the span it merges with on the right.
func (s *Set) lastFrom(g uint64) uint64 {
	w := g / 64
	word := s.last[w] >> (g % 64) << (g % 64)
	for word == 0 {
		w++
		word = s.last[w]
	}
	return w*64 + uint64(bits.TrailingZeros64(word))
}

func test(plane []uint64, g uint64) bool { return plane[g/64]&(1<<(g%64)) != 0 }
func set(plane []uint64, g uint64)       { plane[g/64] |= 1 << (g % 64) }
func clr(plane []uint64, g uint64)       { plane[g/64] &^= 1 << (g % 64) }
