// Package quarantine implements CHERIvoke's quarantine buffer (§3.1 of the
// paper): freed chunks are detained here, coalescing with address-adjacent
// quarantined neighbours in constant time, until the buffer reaches a
// configured fraction of the live heap and a revocation sweep drains it.
//
// Coalescing is the batching effect §6.1.1 credits for quarantine sometimes
// *improving* performance: aggregated chunks mean far fewer internal frees
// when the buffer is drained than the program issued.
package quarantine

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/addrmap"
)

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

// Buffer is a quarantine buffer. It maintains chunks keyed by their start
// and end addresses so insertion coalesces with both neighbours in O(1)
// table work, mirroring dlmalloc's constant-time aggregation (§5.2).
type Buffer struct {
	byStart addrmap.Map // chunk start -> size
	byEnd   addrmap.Map // chunk exclusive end -> start
	bytes   uint64
	stats   Stats
}

// New returns an empty quarantine buffer.
func New() *Buffer { return &Buffer{} }

// Bytes returns the total quarantined bytes.
func (b *Buffer) Bytes() uint64 { return b.bytes }

// Len returns the number of (coalesced) chunks currently detained.
func (b *Buffer) Len() int { return b.byStart.Len() }

// Stats returns a snapshot of the activity counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Insert detains [addr, addr+size), coalescing with adjacent quarantined
// chunks. It returns an error, and leaves the buffer unchanged, for an empty
// or wrapping range and for one that starts where a quarantined chunk starts
// or ends where one ends. Those are the only overlaps it detects: a range
// strictly inside a chunk, such as Insert(0x1010, 0x10) into [0x1000,
// +0x40), is accepted and its bytes are counted twice. core relies on
// alloc.Release's ErrBadFree to stop double frees before they reach the
// buffer.
func (b *Buffer) Insert(addr, size uint64) error {
	if size == 0 {
		return fmt.Errorf("quarantine: zero-size insert at %#x", addr)
	}
	start, end := addr, addr+size
	if end < start {
		return fmt.Errorf("quarantine: range [%#x, +%#x) wraps", addr, size)
	}
	if _, clash := b.byStart.Get(start); clash {
		return fmt.Errorf("quarantine: overlapping insert at %#x", start)
	}
	if _, clash := b.byEnd.Get(end); clash {
		return fmt.Errorf("quarantine: overlapping insert ending at %#x", end)
	}
	b.stats.Inserts++
	// Merge with a chunk ending exactly at our start.
	if left, ok := b.byEnd.Delete(start); ok {
		b.byStart.Delete(left)
		start = left
		b.stats.Coalesces++
	}
	// Merge with a chunk starting exactly at our end.
	if rsize, ok := b.byStart.Delete(end); ok {
		b.byEnd.Delete(end + rsize)
		end += rsize
		b.stats.Coalesces++
	}
	b.byStart.Put(start, end-start)
	b.byEnd.Put(end, start)
	b.bytes += size
	return nil
}

// Contains reports whether addr lies within any quarantined chunk. It is
// O(n) over chunks and intended for assertions and tests, not hot paths.
func (b *Buffer) Contains(addr uint64) bool {
	for start, size := range b.byStart.All() {
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
	out := make([]Chunk, 0, b.byStart.Len())
	for start, size := range b.byStart.All() {
		out = append(out, Chunk{Addr: start, Size: size})
	}
	slices.SortFunc(out, func(x, y Chunk) int { return cmp.Compare(x.Addr, y.Addr) })
	return out
}

// Drain empties the buffer, returning every coalesced chunk for the sweep to
// paint and, afterwards, for the allocator to recycle.
func (b *Buffer) Drain() []Chunk {
	out := b.Chunks()
	b.byStart.Clear()
	b.byEnd.Clear()
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
