// Package alloc implements the heap-allocator substrate: a dlmalloc-style
// best-fit allocator with binned free lists, splitting and constant-time
// boundary coalescing, operating on the simulated tagged memory. Release
// and FreeRange are the hooks CHERIvoke needs: core.System quarantines
// released chunks, paints them into the shadow map and recycles them after a
// sweep (the paper's dlmalloc_cherivoke, §5.2).
//
// Like real dlmalloc, the allocator hands out 16-byte-granule-aligned
// chunks and keeps a bitmap of its non-empty bins, so a request that no free
// chunk fits costs one bit scan instead of a walk over every larger bin.
// Unlike it, bookkeeping lives beside (not inside) the simulated heap, in
// place of boundary tags. Live allocations are two spanset bit-planes over
// the heap's granules, indexed by heap offset like the revocation shadow
// map: the first and the last granule of each allocation. Free chunks are
// addrmap tables keyed by address (start to size, end to start), which give
// a chunk's size in O(1) and stay small enough to be cache-resident. The
// allocator is part of CHERIvoke's trusted computing base (§3.6), so its
// metadata being out-of-band does not change the security argument, and it
// keeps the simulated heap image purely application data, which the
// sweep-measurement code relies on.
package alloc

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/addrmap"
	"repro/internal/mem"
	"repro/internal/spanset"
)

// Granule is the allocation granule and minimum alignment (16 bytes).
const Granule = 16

// Allocation-size binning: bins 0..31 hold exact sizes 16..512; bins 32+
// hold geometric classes, one per power of two above 512.
const (
	nSmallBins  = 32
	maxSmall    = nSmallBins * Granule
	nBins       = nSmallBins + 32
	growQuantum = 64 * mem.PageSize // map simulated pages in 256 KiB steps
)

// MaxHeapBytes is the sanity cap on the simulated heap (1 TiB). A request
// larger than it fails with ErrOOM before any padding, which would otherwise
// wrap near 2^64.
const MaxHeapBytes = uint64(1) << 40

// The binmap is one uint64 with a bit per bin; these lengths go negative if
// nBins drifts from 64.
var (
	_ [nBins - 64]byte
	_ [64 - nBins]byte
)

// Sentinel errors.
var (
	// ErrBadFree reports a free of an address that is not a live
	// allocation (double free or wild free).
	ErrBadFree = errors.New("alloc: free of non-allocated address")

	// ErrOOM reports simulated-heap exhaustion.
	ErrOOM = errors.New("alloc: out of simulated heap")
)

// Stats counts allocator activity.
type Stats struct {
	Mallocs     uint64
	Frees       uint64 // direct frees (non-quarantined path)
	Releases    uint64 // detachments to quarantine
	FreeRanges  uint64 // raw coalesced ranges recycled after a sweep
	Splits      uint64
	Coalesces   uint64
	HeapGrows   uint64
	BinRescans  uint64 // stale lazy-bin entries skipped
	PeakLive    uint64
	PeakHeap    uint64
	BytesAlloc  uint64 // cumulative bytes requested
	BytesPadded uint64 // cumulative bytes actually provisioned
}

type binEntry struct {
	addr uint64
	size uint64
}

// Options selects allocator policy variations.
type Options struct {
	// TypedReuse enables Cling-style type-stable reuse (§7.4/§8 of the
	// paper, [2]): a freed chunk may only satisfy requests of the same
	// size class, chunks never split or coalesce across classes, and so
	// a use-after-reallocation can only confuse two objects of the same
	// shape — partial temporal safety with no sweeping at all, at a
	// fragmentation cost the extension benchmarks quantify.
	TypedReuse bool
}

// Allocator is the dlmalloc-style allocator. It is not safe for concurrent
// use; CHERIvoke serialises allocation against sweeps anyway.
type Allocator struct {
	mem      *mem.Memory
	opt      Options
	base     uint64            // heap base address
	top      uint64            // first never-allocated address (sbrk pointer)
	limit    uint64            // end of mapped region
	bins     [nBins][]binEntry // lazy LIFO stacks; validity = tables below
	binmap   uint64            // bit b set iff bins[b] is non-empty
	byAddr   addrmap.Map       // free chunk start -> size (source of truth)
	byEnd    addrmap.Map       // free chunk exclusive end -> start
	live     spanset.Set       // live allocations over [base, limit)
	liveSize uint64
	stats    Stats
}

// New returns an allocator with policy options opt, managing a heap that
// starts at base (which must be page-aligned) in m and grows upward as
// needed.
func New(m *mem.Memory, base uint64, opt Options) (*Allocator, error) {
	if base%mem.PageSize != 0 {
		return nil, fmt.Errorf("alloc: heap base %#x not page-aligned", base)
	}
	return &Allocator{mem: m, opt: opt, base: base, top: base, limit: base, live: spanset.New(base)}, nil
}

// Base returns the heap base address.
func (a *Allocator) Base() uint64 { return a.base }

// HeapBytes returns the current heap extent (base to sbrk top), the paper's
// "heap size" denominator for the quarantine fraction.
func (a *Allocator) HeapBytes() uint64 { return a.top - a.base }

// MappedBytes returns the mapped region size (top rounded up to the grow
// quantum).
func (a *Allocator) MappedBytes() uint64 { return a.limit - a.base }

// LiveBytes returns the bytes currently held by live allocations.
func (a *Allocator) LiveBytes() uint64 { return a.liveSize }

// LiveCount returns the number of live allocations.
func (a *Allocator) LiveCount() int { return a.live.Len() }

// Stats returns a snapshot of the activity counters.
func (a *Allocator) Stats() Stats { return a.stats }

func binFor(size uint64) int {
	if size <= maxSmall {
		return int(size/Granule) - 1
	}
	b := nSmallBins + bits.Len64(size-1) - 10
	if b >= nBins {
		b = nBins - 1
	}
	return b
}

// roundUp pads a request to a whole number of granules (minimum one).
func roundUp(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	return (size + Granule - 1) &^ (Granule - 1)
}

// insertFree adds [addr, addr+size) to the free structure, coalescing with
// both neighbours (unless typed reuse forbids cross-class merging), and
// pushes the result on its bin.
func (a *Allocator) insertFree(addr, size uint64) {
	if !a.opt.TypedReuse {
		if left, ok := a.byEnd.Delete(addr); ok {
			lsize, _ := a.byAddr.Delete(left)
			addr = left
			size += lsize
			a.stats.Coalesces++
		}
		if rsize, ok := a.byAddr.Delete(addr + size); ok {
			a.byEnd.Delete(addr + size + rsize)
			size += rsize
			a.stats.Coalesces++
		}
	}
	a.pushFree(addr, size)
}

// pushFree records the free chunk [addr, addr+size) and pushes it on its
// bin without coalescing. MallocAligned calls it for a split's head and
// tail slack, which can have no free neighbour: one side is the new
// allocation, and the other bounded a free chunk, which insertFree never
// leaves beside another (typed reuse, which does, never splits).
func (a *Allocator) pushFree(addr, size uint64) {
	a.byAddr.Put(addr, size)
	a.byEnd.Put(addr+size, addr)
	b := binFor(size)
	a.bins[b] = append(a.bins[b], binEntry{addr, size})
	a.binmap |= 1 << b
}

// popFit pops a valid free chunk of at least size bytes whose aligned start
// fits, searching the non-empty bins from the request's class upward. It
// returns the chunk or ok=false.
func (a *Allocator) popFit(size, alignMask uint64) (binEntry, bool) {
	first := binFor(size)
	candidates := a.binmap >> first << first
	if a.opt.TypedReuse {
		// Type-stable reuse: only the request's own class, and only
		// exact-size chunks, may be recycled.
		candidates &= 1 << first
	}
	for ; candidates != 0; candidates &= candidates - 1 {
		b := bits.TrailingZeros64(candidates)
		bin := a.bins[b]
		var skipped []binEntry
		for len(bin) > 0 {
			e := bin[len(bin)-1]
			bin = bin[:len(bin)-1]
			cur, ok := a.byAddr.Get(e.addr)
			if !ok || cur != e.size {
				// Stale entry left behind by coalescing.
				a.stats.BinRescans++
				continue
			}
			aligned := alignUp(e.addr, alignMask)
			fits := aligned+size <= e.addr+e.size
			if a.opt.TypedReuse {
				// Exact reuse only: no splitting a larger chunk
				// for a smaller (differently-shaped) request.
				fits = e.addr == aligned && e.size == size
			}
			if fits {
				a.setBin(b, append(bin, skipped...))
				a.byAddr.Delete(e.addr)
				a.byEnd.Delete(e.addr + e.size)
				return e, true
			}
			// Valid but the aligned request does not fit; keep it.
			skipped = append(skipped, e)
			a.stats.BinRescans++
		}
		a.setBin(b, append(bin[:0], skipped...))
	}
	return binEntry{}, false
}

// setBin stores bin b's remaining entries, clearing its binmap bit once it
// is empty.
func (a *Allocator) setBin(b int, bin []binEntry) {
	a.bins[b] = bin
	if len(bin) == 0 {
		a.binmap &^= 1 << b
	}
}

func alignUp(addr, alignMask uint64) uint64 {
	if alignMask == ^uint64(0) || alignMask == 0 {
		return addr
	}
	granule := ^alignMask + 1
	return (addr + granule - 1) & alignMask
}

// Malloc allocates size bytes (padded to the granule) and returns the chunk
// address and its provisioned size.
func (a *Allocator) Malloc(size uint64) (addr, padded uint64, err error) {
	return a.MallocAligned(size, ^uint64(0))
}

// MallocAligned allocates size bytes at an address satisfying
// addr & ^alignMask == 0. CHERIvoke uses it to place large allocations at
// capability-representable alignment.
func (a *Allocator) MallocAligned(size, alignMask uint64) (addr, padded uint64, err error) {
	if size > MaxHeapBytes {
		return 0, 0, fmt.Errorf("alloc: malloc(%d) exceeds the %d-byte heap cap: %w", size, MaxHeapBytes, ErrOOM)
	}
	req := size
	size = roundUp(size)
	if e, ok := a.popFit(size, alignMask); ok {
		addr = alignUp(e.addr, alignMask)
		// Return any head and tail slack to the free lists.
		if head := addr - e.addr; head > 0 {
			a.pushFree(e.addr, head)
			a.stats.Splits++
		}
		if tail := e.addr + e.size - (addr + size); tail > 0 {
			a.pushFree(addr+size, tail)
			a.stats.Splits++
		}
	} else {
		addr, err = a.grow(size, alignMask)
		if err != nil {
			return 0, 0, err
		}
	}
	a.live.Add(addr, size)
	a.liveSize += size
	a.stats.Mallocs++
	a.stats.BytesAlloc += req
	a.stats.BytesPadded += size
	if a.liveSize > a.stats.PeakLive {
		a.stats.PeakLive = a.liveSize
	}
	if h := a.HeapBytes(); h > a.stats.PeakHeap {
		a.stats.PeakHeap = h
	}
	return addr, size, nil
}

// grow extends the heap top to satisfy an allocation no free chunk fits.
func (a *Allocator) grow(size, alignMask uint64) (uint64, error) {
	addr := alignUp(a.top, alignMask)
	newTop := addr + size
	if newTop-a.base > MaxHeapBytes {
		return 0, fmt.Errorf("alloc: heap would reach %d bytes: %w", newTop-a.base, ErrOOM)
	}
	if newTop > a.limit {
		grow := (newTop - a.limit + growQuantum - 1) / growQuantum * growQuantum
		if err := a.mem.Map(a.limit, grow); err != nil {
			return 0, fmt.Errorf("alloc: growing heap: %w", err)
		}
		a.limit += grow
		a.live.Grow(a.limit)
		a.stats.HeapGrows++
	}
	if head := addr - a.top; head > 0 {
		// Alignment skipped over a gap; keep it allocatable.
		a.insertFree(a.top, head)
	}
	a.top = newTop
	return addr, nil
}

// SizeOf returns the provisioned size of the live allocation at addr.
func (a *Allocator) SizeOf(addr uint64) (uint64, bool) {
	return a.live.SizeAt(addr)
}

// Free immediately recycles the allocation at addr (the insecure, classic
// dlmalloc path used by the baseline configuration).
func (a *Allocator) Free(addr uint64) error {
	size, err := a.detach(addr)
	if err != nil {
		return err
	}
	a.stats.Frees++
	a.insertFree(addr, size)
	return nil
}

// Release detaches the allocation at addr without recycling it, returning
// its provisioned size. CHERIvoke's free() uses it to move the chunk into
// quarantine instead of the free lists (§3.1).
func (a *Allocator) Release(addr uint64) (uint64, error) {
	size, err := a.detach(addr)
	if err != nil {
		return 0, err
	}
	a.stats.Releases++
	return size, nil
}

func (a *Allocator) detach(addr uint64) (uint64, error) {
	size, ok := a.live.Remove(addr)
	if !ok {
		return 0, fmt.Errorf("alloc: free(%#x): %w", addr, ErrBadFree)
	}
	a.liveSize -= size
	return size, nil
}

// FreeRange recycles a raw (possibly multi-allocation, already-coalesced)
// address range. The revocation sweep calls it for each drained quarantine
// chunk; thanks to quarantine-side aggregation this is typically far fewer
// operations than the program's frees (§6.1.1).
func (a *Allocator) FreeRange(addr, size uint64) {
	a.stats.FreeRanges++
	a.insertFree(addr, size)
}

// ForEachLive calls f for every live allocation in ascending address order.
func (a *Allocator) ForEachLive(f func(addr, size uint64)) {
	for addr, size := range a.live.All() {
		f(addr, size)
	}
}

// FreeBytes returns the bytes currently on the free lists.
func (a *Allocator) FreeBytes() uint64 {
	var sum uint64
	for _, s := range a.byAddr.All() {
		sum += s
	}
	return sum
}

// CheckInvariants verifies internal consistency: the live planes pair each
// first granule with a last one, byAddr and byEnd agree, the binmap marks
// exactly the non-empty bins, free chunks and live allocations are disjoint
// and below the heap top, and liveSize is the sum of the live allocations.
// Tests call it after workloads.
func (a *Allocator) CheckInvariants() error {
	for b := range a.bins {
		if set := a.binmap&(1<<b) != 0; set != (len(a.bins[b]) > 0) {
			return fmt.Errorf("alloc: binmap bit %d is %v but bin holds %d entries", b, set, len(a.bins[b]))
		}
	}
	if err := a.live.Check(); err != nil {
		return fmt.Errorf("alloc: live planes: %w", err)
	}
	var free []binEntry
	for addr, size := range a.byAddr.All() {
		if back, ok := a.byEnd.Get(addr + size); !ok || back != addr {
			return fmt.Errorf("alloc: byEnd missing/disagrees for chunk %#x+%#x", addr, size)
		}
		free = append(free, binEntry{addr, size})
	}
	if a.byAddr.Len() != a.byEnd.Len() {
		return fmt.Errorf("alloc: byAddr/byEnd size mismatch %d/%d", a.byAddr.Len(), a.byEnd.Len())
	}
	slices.SortFunc(free, func(x, y binEntry) int { return cmp.Compare(x.addr, y.addr) })
	var sum uint64
	end := a.base // of the previous chunk, free or live, in address order
	for addr, size := range a.live.All() {
		for len(free) > 0 && free[0].addr < addr {
			if free[0].addr < end {
				return fmt.Errorf("alloc: free chunk %#x+%#x overlaps the chunk ending at %#x", free[0].addr, free[0].size, end)
			}
			end, free = free[0].addr+free[0].size, free[1:]
		}
		if addr < end {
			return fmt.Errorf("alloc: live %#x+%#x overlaps the chunk ending at %#x", addr, size, end)
		}
		end = addr + size
		sum += size
	}
	for _, e := range free {
		if e.addr < end {
			return fmt.Errorf("alloc: free chunk %#x+%#x overlaps the chunk ending at %#x", e.addr, e.size, end)
		}
		end = e.addr + e.size
	}
	if end > a.top {
		return fmt.Errorf("alloc: a chunk ends at %#x, past the heap top %#x", end, a.top)
	}
	if sum != a.liveSize {
		return fmt.Errorf("alloc: liveSize %d != sum %d", a.liveSize, sum)
	}
	return nil
}
