package mem

// Set-associative LRU cache model used to account DRAM traffic for the
// revocation sweep (Figure 10) and to model the tag cache that CLoadTags
// probes terminate in (§2.2, §3.4.1). The model tracks hits, misses and
// write-backs; it stores no data — correctness always comes from Memory,
// timing and traffic from this overlay. A sweep is charged in closed form
// (Hierarchy.ChargeSweep); Access, AccessTags and WriteBack are the
// line-by-line reference model that closed form is tested against.

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	Size     uint64 // total capacity in bytes
	LineSize uint64 // line size in bytes
	Ways     int    // associativity
}

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

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// Cache is a single set-associative, write-back, write-allocate LRU cache.
// Its line metadata is allocated on the first Access, so a cache that is
// only charged in closed form is just its counters.
type Cache struct {
	cfg   CacheConfig
	sets  [][]cacheLine
	clock uint64
	stats CacheStats
}

// NewCache returns a cache with the given geometry. Size must be a multiple
// of LineSize*Ways.
func NewCache(cfg CacheConfig) *Cache { return &Cache{cfg: cfg} }

// Config returns the cache's geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Reset invalidates all lines and zeroes counters.
func (c *Cache) Reset() { *c = Cache{cfg: c.cfg} }

// Access touches the line containing addr, allocating it on miss. It returns
// (hit, writeBack): writeBack is true when the allocation evicted a dirty
// line.
func (c *Cache) Access(addr uint64, write bool) (hit, writeBack bool) {
	if c.sets == nil {
		nSets := max(int(c.cfg.Size/c.cfg.LineSize/uint64(c.cfg.Ways)), 1)
		c.sets = make([][]cacheLine, nSets)
		for i := range c.sets {
			c.sets[i] = make([]cacheLine, c.cfg.Ways)
		}
	}
	c.clock++
	lineAddr := addr / c.cfg.LineSize
	set := c.sets[lineAddr%uint64(len(c.sets))]
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == lineAddr {
			l.lru = c.clock
			if write {
				l.dirty = true
			}
			c.stats.Hits++
			return true, false
		}
	}
	// Prefer an invalid way, else the least-recently-used one.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.stats.Misses++
	writeBack = set[victim].valid && set[victim].dirty
	if writeBack {
		c.stats.WriteBacks++
	}
	set[victim] = cacheLine{tag: lineAddr, valid: true, dirty: write, lru: c.clock}
	return false, writeBack
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

// Hierarchy is the three-level data-cache hierarchy of Table 1's x86 system
// plus the CHERI tag cache. Accesses walk L1→L2→LLC; misses at the LLC fill
// from DRAM.
type Hierarchy struct {
	L1, L2, LLC *Cache
	// TagCache caches the hierarchical tag table. One tag-table line
	// covers TagLineCoverage bytes of data memory.
	TagCache *Cache
	stats    HierarchyStats
}

// TagLineCoverage is the span of data memory covered by one tag-cache line:
// with one tag bit per 16-byte granule, a 64-byte tag line covers 64*8*16 =
// 8 KiB of data.
const TagLineCoverage = LineSize * 8 * GranuleSize

// NewX86Hierarchy returns the cache hierarchy of the paper's x86-64 system
// (Table 1: 8 MiB LLC), with conventional L1/L2 sizes for that part and a
// 32 KiB tag cache as in the CHERI prototypes (§2.2).
func NewX86Hierarchy() *Hierarchy {
	return &Hierarchy{
		L1:       NewCache(CacheConfig{Name: "L1D", Size: 32 << 10, LineSize: LineSize, Ways: 8}),
		L2:       NewCache(CacheConfig{Name: "L2", Size: 256 << 10, LineSize: LineSize, Ways: 8}),
		LLC:      NewCache(CacheConfig{Name: "LLC", Size: 8 << 20, LineSize: LineSize, Ways: 16}),
		TagCache: NewCache(CacheConfig{Name: "Tag$", Size: 32 << 10, LineSize: LineSize, Ways: 4}),
	}
}

// NewCHERIHierarchy returns the FPGA prototype's hierarchy (Table 1: 256 KiB
// LLC, single level below L1).
func NewCHERIHierarchy() *Hierarchy {
	return &Hierarchy{
		L1:       NewCache(CacheConfig{Name: "L1D", Size: 16 << 10, LineSize: LineSize, Ways: 2}),
		L2:       NewCache(CacheConfig{Name: "L2", Size: 64 << 10, LineSize: LineSize, Ways: 4}),
		LLC:      NewCache(CacheConfig{Name: "LLC", Size: 256 << 10, LineSize: LineSize, Ways: 8}),
		TagCache: NewCache(CacheConfig{Name: "Tag$", Size: 32 << 10, LineSize: LineSize, Ways: 4}),
	}
}

// Stats returns the hierarchy's aggregate traffic counters.
func (h *Hierarchy) Stats() HierarchyStats { return h.stats }

// LevelStats is one cache level's counters, labelled for artifacts.
type LevelStats struct {
	Name string `json:"name"`
	CacheStats
}

// Levels returns every level's counters in walk order (L1, L2, LLC, then the
// tag cache when present).
func (h *Hierarchy) Levels() []LevelStats {
	out := []LevelStats{
		{Name: h.L1.cfg.Name, CacheStats: h.L1.stats},
		{Name: h.L2.cfg.Name, CacheStats: h.L2.stats},
		{Name: h.LLC.cfg.Name, CacheStats: h.LLC.stats},
	}
	if h.TagCache != nil {
		out = append(out, LevelStats{Name: h.TagCache.cfg.Name, CacheStats: h.TagCache.stats})
	}
	return out
}

// Reset clears all levels and counters.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.LLC.Reset()
	if h.TagCache != nil {
		h.TagCache.Reset()
	}
	h.stats = HierarchyStats{}
}

// Access models a data access walking the hierarchy. It returns the level
// that hit: 1, 2, 3, or 4 for DRAM.
func (h *Hierarchy) Access(addr uint64, write bool) int {
	if hit, _ := h.L1.Access(addr, write); hit {
		return 1
	}
	if hit, _ := h.L2.Access(addr, write); hit {
		return 2
	}
	h.stats.OffCoreBytes += LineSize
	hit, wb := h.LLC.Access(addr, write)
	if wb {
		h.stats.DRAMWriteBytes += LineSize
	}
	if hit {
		return 3
	}
	h.stats.DRAMReadBytes += LineSize
	return 4
}

// WriteBack charges the DRAM drain of one stored line, as the sweep model
// charges each line a sweep stores back (one holding a revocation, or every
// swept line under the vector kernel): the store itself hits in L1 — the
// line was examined immediately before — and its dirtied line is drained to
// DRAM exactly once when the streaming sweep evicts it. Charging the drain
// directly, instead of setting dirty bits and counting evictions, keeps write
// traffic independent of where the walk happens to end (lines still resident
// at the end of a walk would otherwise never be counted).
func (h *Hierarchy) WriteBack() {
	h.stats.DRAMWriteBytes += LineSize
	h.stats.OffCoreBytes += LineSize
}

// AccessTags models a CLoadTags probe: it consults only the tag cache,
// filling one tag-table line from DRAM on miss. It returns true if the probe
// hit in the tag cache.
func (h *Hierarchy) AccessTags(dataAddr uint64) bool {
	if h.TagCache == nil {
		return false
	}
	tagAddr := dataAddr / TagLineCoverage * LineSize
	hit, _ := h.TagCache.Access(tagAddr, false)
	if !hit {
		h.stats.TagDRAMReads += LineSize
		h.stats.DRAMReadBytes += LineSize
		h.stats.OffCoreBytes += LineSize
	}
	return hit
}

// ChargeSweep charges one revocation sweep to the hierarchy in closed form
// and returns the traffic it added (a sweep's Stats.Traffic). The counts
// describe the sweep: lines is the lines it read, stores the lines it
// stored back, probes its CLoadTags probes and fills the distinct tag-table
// lines those probes touched.
//
// The result equals walking the same sweep through Access, AccessTags and
// WriteBack on a cold hierarchy, because the sweep model makes three
// choices. Each sweep starts cold, so warmth carried in from the
// application between sweeps is not credited (the paper's pessimistic
// Figure 10 accounting). A sweep reads each swept line once, so every read
// misses at L1, L2 and the LLC and fills from DRAM, whatever the geometry.
// And a tag line is reused only by probes inside its own 8 KiB window, which
// the sweep walks contiguously, so it fills once and every other probe hits.
// Stored lines are charged as WriteBack charges them.
func (h *Hierarchy) ChargeSweep(lines, stores, probes, fills uint64) HierarchyStats {
	for _, c := range []*Cache{h.L1, h.L2, h.LLC} {
		c.stats.Misses += lines
	}
	if h.TagCache == nil {
		fills = 0 // AccessTags charges nothing without a tag cache
	} else {
		h.TagCache.stats.Misses += fills
		h.TagCache.stats.Hits += probes - fills
	}
	d := HierarchyStats{
		DRAMReadBytes:  (lines + fills) * LineSize,
		DRAMWriteBytes: stores * LineSize,
		OffCoreBytes:   (lines + stores + fills) * LineSize,
		TagDRAMReads:   fills * LineSize,
	}
	h.stats = h.stats.Merge(d)
	return d
}
