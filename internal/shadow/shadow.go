// Package shadow implements CHERIvoke's revocation shadow map (§3.2 of the
// paper): one bit per 16-byte allocation granule of the heap, painted for
// every chunk in quarantine before a revocation sweep, looked up by the sweep
// for every tagged capability it encounters, and cleared after the sweep.
//
// The map lives at a fixed transform from the heap (shadow offset =
// (addr - heapBase) / 128), so a lookup is a shift, an add and a byte load —
// the deterministic, layout-independent cost structure the paper argues for.
// Painting is optimised to use whole-word stores for large aligned runs
// (§5.2), with a naive per-bit variant retained for the ablation benchmark.
package shadow

import (
	"fmt"
	"math/bits"
)

// Granule is the allocation granule covered by one shadow bit: 16 bytes,
// matching dlmalloc's minimum alignment (§3.2).
const Granule = 16

// BytesPerShadowByte is the heap span covered by one byte of shadow map.
const BytesPerShadowByte = Granule * 8

// Stats counts shadow-map maintenance work. Store counters model the memory
// operations a hardware implementation would issue, which is what the
// painting-cost model charges for.
type Stats struct {
	PaintCalls      uint64 // Paint invocations (quarantined chunks painted)
	ClearCalls      uint64
	BitStores       uint64 // single-bit read-modify-write stores
	WordStores      uint64 // whole 64-bit shadow word stores
	Lookups         uint64 // sweep-side granule lookups
	PaintedGranules uint64 // granules currently painted
}

// Map is a revocation shadow map covering the heap region [base, limit).
type Map struct {
	base  uint64
	limit uint64
	words []uint64 // one bit per granule, little-endian within each word
	stats Stats
}

// New returns a shadow map covering [base, base+size). base and size must be
// granule-aligned; size is rounded up to a whole shadow word (64 granules =
// 1 KiB of heap).
func New(base, size uint64) (*Map, error) {
	if base%Granule != 0 || size%Granule != 0 {
		return nil, fmt.Errorf("shadow: region [%#x, +%#x) not %d-byte aligned", base, size, Granule)
	}
	granules := size / Granule
	return &Map{
		base:  base,
		limit: base + size,
		words: make([]uint64, (granules+63)/64),
	}, nil
}

// Base returns the first heap address covered.
func (m *Map) Base() uint64 { return m.base }

// Limit returns the exclusive upper heap address covered.
func (m *Map) Limit() uint64 { return m.limit }

// SizeBytes returns the shadow map's own storage footprint — 1/128 of the
// covered heap (“less than 1% of the heap”, §3.2).
func (m *Map) SizeBytes() uint64 { return uint64(len(m.words)) * 8 }

// Stats returns a snapshot of the maintenance counters.
func (m *Map) Stats() Stats { return m.stats }

// Grow extends coverage to [base, base+newSize), preserving painted state.
// It supports heap growth; the base cannot move. When the words have to
// move, their capacity at least doubles (append's growth for large slices,
// about ×1.25, would copy a heap grown in small steps several times over);
// SizeBytes counts only the words the coverage needs.
func (m *Map) Grow(newSize uint64) error {
	if newSize%Granule != 0 {
		return fmt.Errorf("shadow: Grow(%#x) not granule-aligned", newSize)
	}
	if m.base+newSize > m.limit {
		m.limit = m.base + newSize
	}
	if need := int((newSize/Granule + 63) / 64); need > len(m.words) {
		if need > cap(m.words) {
			m.words = append(make([]uint64, 0, max(need, 2*cap(m.words))), m.words...)
		}
		m.words = m.words[:need] // words past the length were never written
	}
	return nil
}

func (m *Map) check(addr, size uint64) error {
	if addr < m.base || addr+size > m.limit || addr+size < addr {
		return fmt.Errorf("shadow: [%#x, +%#x) outside covered region [%#x, %#x)", addr, size, m.base, m.limit)
	}
	if addr%Granule != 0 || size%Granule != 0 {
		return fmt.Errorf("shadow: [%#x, +%#x) not granule-aligned", addr, size)
	}
	return nil
}

// Paint marks every granule of [addr, addr+size) as revoked-on-next-sweep.
// Aligned interior runs are painted with whole-word stores; only the ragged
// head and tail pay per-bit read-modify-writes (§5.2's optimisation).
func (m *Map) Paint(addr, size uint64) error {
	if err := m.check(addr, size); err != nil {
		return err
	}
	m.stats.PaintCalls++
	m.setRange((addr-m.base)/Granule, size/Granule, true)
	return nil
}

// Clear unmarks every granule of [addr, addr+size); sweeps call it (via
// ClearAll) once quarantined chunks have been revoked and recycled.
func (m *Map) Clear(addr, size uint64) error {
	if err := m.check(addr, size); err != nil {
		return err
	}
	m.stats.ClearCalls++
	m.setRange((addr-m.base)/Granule, size/Granule, false)
	return nil
}

func (m *Map) setRange(g, n uint64, v bool) {
	painted := int64(0)
	// Ragged head up to a word boundary.
	for ; n > 0 && g%64 != 0; g, n = g+1, n-1 {
		painted += m.setBit(g, v)
		m.stats.BitStores++
	}
	// Whole words.
	for ; n >= 64; g, n = g+64, n-64 {
		w := &m.words[g/64]
		if v {
			painted += int64(64 - bits.OnesCount64(*w))
			*w = ^uint64(0)
		} else {
			painted -= int64(bits.OnesCount64(*w))
			*w = 0
		}
		m.stats.WordStores++
	}
	// Ragged tail.
	for ; n > 0; g, n = g+1, n-1 {
		painted += m.setBit(g, v)
		m.stats.BitStores++
	}
	m.stats.PaintedGranules = uint64(int64(m.stats.PaintedGranules) + painted)
}

func (m *Map) setBit(g uint64, v bool) int64 {
	w := &m.words[g/64]
	bit := uint64(1) << (g % 64)
	old := *w&bit != 0
	if v == old {
		return 0
	}
	if v {
		*w |= bit
		return 1
	}
	*w &^= bit
	return -1
}

// PaintNaive is Paint without the run optimisation: every granule pays a
// read-modify-write bit store. Kept for the painting ablation benchmark.
func (m *Map) PaintNaive(addr, size uint64) error {
	if err := m.check(addr, size); err != nil {
		return err
	}
	m.stats.PaintCalls++
	painted := int64(0)
	for g := (addr - m.base) / Granule; g < (addr-m.base+size)/Granule; g++ {
		painted += m.setBit(g, true)
		m.stats.BitStores++
	}
	m.stats.PaintedGranules = uint64(int64(m.stats.PaintedGranules) + painted)
	return nil
}

// IsRevoked reports whether the granule containing addr is painted. This is
// the sweep's inner-loop lookup: addresses outside the covered region (e.g.
// capability bases pointing at globals) are never revoked.
func (m *Map) IsRevoked(addr uint64) bool {
	m.stats.Lookups++
	return m.Revoked(addr)
}

// Revoked is IsRevoked without the lookup accounting: a pure read for the
// sweep kernel, which keeps its own counters.
func (m *Map) Revoked(addr uint64) bool {
	if addr < m.base || addr >= m.limit {
		return false
	}
	g := (addr - m.base) / Granule
	return m.words[g/64]&(1<<(g%64)) != 0
}

// PaintedGranules returns the number of currently painted granules.
func (m *Map) PaintedGranules() uint64 { return m.stats.PaintedGranules }

// ClearAll unpaints the whole map with word stores, as after a sweep.
func (m *Map) ClearAll() {
	for i := range m.words {
		if m.words[i] != 0 {
			m.words[i] = 0
			m.stats.WordStores++
		}
	}
	m.stats.ClearCalls++
	m.stats.PaintedGranules = 0
}
