package mem

import "math/bits"

// Geometry of the simulated memory system.
const (
	// PageSize is the virtual-memory page size in bytes.
	PageSize = 4096

	// WordSize is the machine word size in bytes.
	WordSize = 8

	// GranuleSize is the capability granule: one 128-bit capability, and
	// one out-of-band tag bit, per 16 bytes. This also matches the
	// allocator's minimum alignment and the shadow map's granule (§3.2).
	GranuleSize = 16

	// LineSize is the cache-line size in bytes; CLoadTags returns the tag
	// bits of one line.
	LineSize = 64

	// WordsPerPage is the number of 64-bit words in a page.
	WordsPerPage = PageSize / WordSize

	// GranulesPerPage is the number of tag bits per page.
	GranulesPerPage = PageSize / GranuleSize

	// GranulesPerLine is the number of tag bits per cache line.
	GranulesPerLine = LineSize / GranuleSize

	// LinesPerPage is the number of cache lines per page.
	LinesPerPage = PageSize / LineSize
)

// page is one mapped 4 KiB frame: data words plus the out-of-band tag bits
// hardware keeps in its hierarchical tag table, and the page-table metadata
// CHERIvoke's hardware assists consume.
type page struct {
	// words is 1 + the index of the page's words among the Memory's word
	// slots, or 0 until the page's first nonzero store: every word of an
	// untouched page reads as zero (Memory.setWord). An index, not a
	// pointer, keeps page slots free of pointers for the garbage
	// collector to scan.
	words uint32
	tags  [GranulesPerPage / 8]uint8

	// capCount and capLines count the set tag bits and the lines holding
	// at least one, maintained on every tag transition (Memory.setTag) so
	// density queries are O(1).
	capCount uint16
	capLines uint8

	// capDirty is the PTE CapDirty flag (§3.4.2): set by the first tagged
	// store to the page, cleared only when a sweep finds the page
	// capability-free.
	capDirty bool

	// capStoreInhibit is the capability-store-inhibit PTE bit: tagged
	// stores trap instead of setting capDirty.
	capStoreInhibit bool
}

func (p *page) tagAt(granule uint) bool {
	return p.tags[granule/8]&(1<<(granule%8)) != 0
}

// The nibble extraction in lineTagMask assumes exactly 4 granules per line
// (two lines per tag byte); these lengths go negative if the geometry drifts.
var (
	_ [GranulesPerLine - 4]byte
	_ [4 - GranulesPerLine]byte
)

// lineTagMask returns the GranulesPerLine tag bits of the line starting at
// the given line index within the page, as a little-endian bit mask. With 4
// granules per line the mask is one nibble of the tag bitmap, extracted in a
// single shift — this sits on every tag transition (Memory.setTag).
func (p *page) lineTagMask(line uint) uint8 {
	return (p.tags[line>>1] >> ((line & 1) * GranulesPerLine)) & (1<<GranulesPerLine - 1)
}

// countTags recounts the set tag bits and the lines holding one from the
// tag bitmap, for invariant checks.
func (p *page) countTags() (granules, lines int) {
	for _, b := range p.tags {
		granules += bits.OnesCount8(b)
	}
	for l := uint(0); l < LinesPerPage; l++ {
		if p.lineTagMask(l) != 0 {
			lines++
		}
	}
	return granules, lines
}
