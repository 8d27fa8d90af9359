// Package quarantine implements CHERIvoke's quarantine buffer (§3.1 of the
// paper): freed chunks are detained here, coalescing with address-adjacent
// quarantined neighbours in constant time, until the buffer reaches a
// configured fraction of the live heap and a revocation sweep drains it.
//
// Coalescing is the batching effect §6.1.1 credits for quarantine sometimes
// *improving* performance: aggregated chunks mean far fewer internal frees
// when the buffer is drained than the program issued.
//
// The chunks are a spanset over the heap region: two bit-planes indexed by
// heap offset, one bit per 16-byte granule, marking the first and the last
// granule of each chunk, at the same fixed transform from the heap as the
// revocation shadow map (§3.2). A merge clears one boundary bit, and a drain
// walks the planes, so chunks come out in address order with no sort.
package quarantine

import (
	"fmt"

	"repro/internal/spanset"
)

// granule is the alignment of every quarantined range: 16 bytes, the
// allocation granule.
const granule = spanset.Granule

// Chunk is a quarantined address range [Addr, Addr+Size).
type Chunk struct {
	Addr uint64
	Size uint64
}

// End returns the exclusive end address of the chunk.
func (c Chunk) End() uint64 { return c.Addr + c.Size }

// Stats counts quarantine activity.
type Stats struct {
	Inserts    uint64 // accepted calls to Insert (program frees)
	Coalesces  uint64 // inserts merged into an existing chunk
	Drains     uint64 // buffer drains (sweeps)
	DrainedOut uint64 // chunks handed back across all drains
}

// Buffer is a quarantine buffer covering a heap region. Its chunks are
// boundary bits in two planes over that region, so insertion coalesces with
// both neighbours in O(1), mirroring dlmalloc's constant-time aggregation
// (§5.2).
type Buffer struct {
	spans spanset.Set
	bytes uint64
	stats Stats
}

// New returns an empty quarantine buffer covering [base, base+size), the
// layout of shadow.New: base and size must be granule-aligned, and Grow
// extends the coverage as the heap grows.
func New(base, size uint64) (*Buffer, error) {
	if base%granule != 0 || size%granule != 0 || base+size < base {
		return nil, fmt.Errorf("quarantine: region [%#x, +%#x) is not %d-byte aligned or wraps", base, size, granule)
	}
	b := &Buffer{spans: spanset.New(base)}
	b.spans.Grow(base + size)
	return b, nil
}

// Grow extends coverage to [base, base+newSize), preserving the chunks. The
// base cannot move, and a size below the current one is a no-op.
func (b *Buffer) Grow(newSize uint64) error {
	base := b.spans.Base()
	if newSize%granule != 0 || base+newSize < base {
		return fmt.Errorf("quarantine: Grow(%#x) is not granule-aligned or wraps", newSize)
	}
	b.spans.Grow(base + newSize)
	return nil
}

// Bytes returns the total quarantined bytes.
func (b *Buffer) Bytes() uint64 { return b.bytes }

// Len returns the number of (coalesced) chunks currently detained.
func (b *Buffer) Len() int { return b.spans.Len() }

// Stats returns a snapshot of the activity counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Insert detains [addr, addr+size), coalescing with adjacent quarantined
// chunks. It returns an error, and leaves the buffer unchanged, for an empty
// range, for one that is not granule-aligned or not inside the covered
// region, and for one that starts where a quarantined chunk starts or ends
// where one ends. Those are the only overlaps it detects: after a range
// strictly inside a chunk, such as Insert(0x1010, 0x10) into [0x1000,
// +0x40), or one that straddles a chunk's boundary, the buffer's contents
// are unspecified. core never issues such a range, because alloc.Release
// fails with ErrBadFree on a double or interior free before it reaches the
// buffer.
func (b *Buffer) Insert(addr, size uint64) error {
	if size == 0 {
		return fmt.Errorf("quarantine: zero-size insert at %#x", addr)
	}
	if !b.spans.Covers(addr, size) {
		return fmt.Errorf("quarantine: [%#x, +%#x) is not granule-aligned inside [%#x, %#x)", addr, size, b.spans.Base(), b.spans.Limit())
	}
	if b.spans.StartsAt(addr) {
		return fmt.Errorf("quarantine: overlapping insert at %#x", addr)
	}
	if b.spans.EndsAt(addr + size) {
		return fmt.Errorf("quarantine: overlapping insert ending at %#x", addr+size)
	}
	b.stats.Inserts++
	b.stats.Coalesces += uint64(b.spans.Join(addr, size))
	b.bytes += size
	return nil
}

// Contains reports whether addr lies within any quarantined chunk. It walks
// every chunk and is intended for assertions and tests, not hot paths.
func (b *Buffer) Contains(addr uint64) bool {
	for start, size := range b.spans.All() {
		if addr >= start && addr-start < size {
			return true
		}
	}
	return false
}

// Chunks returns the current chunks in ascending address order without
// draining. The order is deterministic so that painting, recycling and every
// downstream measurement are reproducible run-to-run.
func (b *Buffer) Chunks() []Chunk {
	out := make([]Chunk, 0, b.spans.Len())
	for start, size := range b.spans.All() {
		out = append(out, Chunk{Addr: start, Size: size})
	}
	return out
}

// Drain empties the buffer, returning every coalesced chunk in ascending
// address order for the sweep to paint and, afterwards, for the allocator
// to recycle.
func (b *Buffer) Drain() []Chunk {
	out := b.Chunks()
	b.spans.Clear()
	b.bytes = 0
	b.stats.Drains++
	b.stats.DrainedOut += uint64(len(out))
	return out
}

// Policy decides when the buffer must be drained: when quarantined bytes
// reach Fraction × live heap bytes (§3.1: “we may initiate a revocation
// sweep when the quarantined data has reached ¼ the size of the rest of the
// heap”). A MinBytes floor stops tiny heaps from sweeping constantly.
type Policy struct {
	// Fraction is the quarantine-to-live-heap ratio that triggers a
	// sweep; the paper's default is 0.25 (25% heap overhead).
	Fraction float64
	// MinBytes is the smallest quarantine size that may trigger a sweep.
	MinBytes uint64
}

// DefaultPolicy is the paper's default configuration: sweep at 25% heap
// overhead, with a 1 MiB floor.
var DefaultPolicy = Policy{Fraction: 0.25, MinBytes: 1 << 20}

// ShouldDrain reports whether a buffer holding quarantined bytes against the
// given live heap size must be drained.
func (p Policy) ShouldDrain(quarantined, liveHeap uint64) bool {
	if quarantined < p.MinBytes {
		return false
	}
	return float64(quarantined) >= p.Fraction*float64(liveHeap)
}
