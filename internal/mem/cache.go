package mem

import "slices"

// Off-core traffic accounting for the revocation sweep (Figure 10),
// including the tag cache that CLoadTags probes terminate in (§2.2,
// §3.4.1). Each sweep starts with cold caches (the paper's pessimistic
// Figure 10 accounting) and reads every swept line once, so a sweep is
// charged in closed form (Hierarchy.ChargeSweep) and the charge ignores
// cache geometry. It stores no data — correctness always comes from Memory.

// CacheStats counts the events at one cache level.
type CacheStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	WriteBacks uint64 `json:"write_backs"`
}

// Merge returns the event-wise sum of s and other. Merge is a commutative
// monoid over CacheStats — associative, commutative, with the zero value as
// identity — so counters summed per sweep or per job fold together in any
// grouping without changing the total.
func (s CacheStats) Merge(other CacheStats) CacheStats {
	return CacheStats{
		Hits:       s.Hits + other.Hits,
		Misses:     s.Misses + other.Misses,
		WriteBacks: s.WriteBacks + other.WriteBacks,
	}
}

// HierarchyStats aggregates traffic through a cache hierarchy.
type HierarchyStats struct {
	DRAMReadBytes  uint64 `json:"dram_read_bytes"`  // line fills from DRAM
	DRAMWriteBytes uint64 `json:"dram_write_bytes"` // dirty write-backs to DRAM
	OffCoreBytes   uint64 `json:"offcore_bytes"`    // traffic beyond L2 (shared-LLC traffic, Figure 10)
	TagDRAMReads   uint64 `json:"tag_dram_reads"`   // tag-table line fills
}

// Merge returns the counter-wise sum of s and other — the same commutative
// monoid as CacheStats.Merge, lifted to the hierarchy's traffic totals.
func (s HierarchyStats) Merge(other HierarchyStats) HierarchyStats {
	return HierarchyStats{
		DRAMReadBytes:  s.DRAMReadBytes + other.DRAMReadBytes,
		DRAMWriteBytes: s.DRAMWriteBytes + other.DRAMWriteBytes,
		OffCoreBytes:   s.OffCoreBytes + other.OffCoreBytes,
		TagDRAMReads:   s.TagDRAMReads + other.TagDRAMReads,
	}
}

// LevelStats is one cache level's counters, labelled for artifacts.
type LevelStats struct {
	Name string `json:"name"`
	CacheStats
}

// Hierarchy counts sweep traffic through three data-cache levels (L1D, L2,
// LLC) and the CHERI tag cache (Tag$), plus the traffic totals.
type Hierarchy struct {
	levels [4]LevelStats // L1D, L2, LLC, Tag$
	stats  HierarchyStats
}

// TagLineCoverage is the span of data memory covered by one tag-cache line:
// with one tag bit per 16-byte granule, a 64-byte tag line covers 64*8*16 =
// 8 KiB of data.
const TagLineCoverage = LineSize * 8 * GranuleSize

// NewX86Hierarchy returns a hierarchy for the paper's x86-64 system. The
// charge ignores geometry, so it counts exactly what NewCHERIHierarchy's
// does; the two differ only in the model a campaign reports.
func NewX86Hierarchy() *Hierarchy {
	return &Hierarchy{levels: [4]LevelStats{{Name: "L1D"}, {Name: "L2"}, {Name: "LLC"}, {Name: "Tag$"}}}
}

// NewCHERIHierarchy returns a hierarchy for the FPGA prototype; see
// NewX86Hierarchy.
func NewCHERIHierarchy() *Hierarchy { return NewX86Hierarchy() }

// Stats returns the hierarchy's aggregate traffic counters.
func (h *Hierarchy) Stats() HierarchyStats { return h.stats }

// Levels returns every level's counters in walk order: L1D, L2, LLC, then
// the tag cache.
func (h *Hierarchy) Levels() []LevelStats { return slices.Clone(h.levels[:]) }

// ChargeSweep charges one revocation sweep to the hierarchy in closed form
// and returns the traffic it added (a sweep's Stats.Traffic). The counts
// describe the sweep: lines is the lines it read, stores the lines it
// stored back, probes its CLoadTags probes and fills the distinct tag-table
// lines those probes touched.
//
// The closed form rests on three choices of the sweep model. Each sweep
// starts cold, so warmth carried in from the application between sweeps is
// not credited (the paper's pessimistic Figure 10 accounting). A sweep
// reads each swept line once, so every read misses at L1, L2 and the LLC
// and fills from DRAM, whatever the geometry. And a tag line is reused only
// by probes inside its own 8 KiB window, which the sweep walks
// contiguously, so it fills once and every other probe hits. Each stored
// line is drained to DRAM exactly once, off-core, when the streaming sweep
// evicts it.
func (h *Hierarchy) ChargeSweep(lines, stores, probes, fills uint64) HierarchyStats {
	for i := range 3 { // L1D, L2, LLC
		h.levels[i].Misses += lines
	}
	tag := &h.levels[3]
	tag.Misses += fills
	tag.Hits += probes - fills
	d := HierarchyStats{
		DRAMReadBytes:  (lines + fills) * LineSize,
		DRAMWriteBytes: stores * LineSize,
		OffCoreBytes:   (lines + stores + fills) * LineSize,
		TagDRAMReads:   fills * LineSize,
	}
	h.stats = h.stats.Merge(d)
	return d
}
