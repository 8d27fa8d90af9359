// Package mem implements the tagged-memory substrate of the simulated CHERI
// machine: a sparse, page-granular 48-bit virtual address space in which
// every 16-byte granule carries a 1-bit capability tag, plus the page-table
// metadata (CapDirty, capability-store-inhibit) and the CLoadTags probe that
// CHERIvoke's hardware assists are built on (§3.4 of the paper).
//
// All capability-authorised accessors take the authorising cap.Capability
// and enforce its tag, seal, permission and bounds checks; Raw accessors
// bypass checks and model the trusted allocator/kernel view.
package mem

import (
	"encoding/binary"
	"slices"

	"repro/internal/cap"
)

// addrLimit is the top of the 48-bit virtual address space.
const addrLimit = 1 << 48

// wordsBlockPages is how many pages' words one host allocation holds: a
// page takes its words from the last block on its first nonzero store.
const wordsBlockPages = 64

// wordsBlock holds the words of wordsBlockPages pages.
type wordsBlock [wordsBlockPages][WordsPerPage]uint64

// Stats counts architectural memory events. Counters are cumulative; callers
// snapshot and subtract to measure an interval.
type Stats struct {
	LoadWords  uint64 // data word loads
	StoreWords uint64 // data word stores
	CapLoads   uint64 // capability (16-byte) loads
	CapStores  uint64 // capability stores
	TagsSet    uint64 // tag transitions 0->1
	TagsClear  uint64 // tag transitions 1->0 (incl. revocations)
	TagProbes  uint64 // CLoadTags line probes
	DirtyTraps uint64 // first tagged store to a CapDirty-clean page
}

// Memory is the simulated tagged memory. It is not safe for concurrent
// mutation; concurrent reads through PageView are safe.
//
// The page table is an address-ordered slice of disjoint regions, each a
// run of consecutive page slots. An allocator heap is one region that Map
// extends as the heap grows, a page lookup is a binary search over the
// regions, and page lists come out in address order with no sort. A slot
// costs under 64 bytes until the page's first nonzero store, which gives it
// 4 KiB of words from the Memory's blocks of wordsBlockPages pages; an
// untouched page reads as zero. The page, cap-page and cap-line counts
// behind Density change with every tag transition, Map and Unmap.
type Memory struct {
	regions  []region
	blocks   []*wordsBlock // word slot i is blocks[i/wordsBlockPages][i%wordsBlockPages]
	slots    uint32        // word slots handed out
	mapped   int           // mapped pages
	capPages int           // mapped pages holding a tag
	capLines int           // lines of mapped pages holding a tag
	stats    Stats
}

// region is a run of mapped pages: pages[i] is the page at base+i*PageSize.
type region struct {
	base  uint64
	pages []page
}

func (r *region) end() uint64 { return r.base + uint64(len(r.pages))*PageSize }

// New returns an empty memory with no mappings.
func New() *Memory { return &Memory{} }

// Stats returns a snapshot of the cumulative event counters.
func (m *Memory) Stats() Stats { return m.stats }

// pageRange checks that [addr, addr+size) is page-aligned and inside the
// 48-bit address space, and returns its end.
func pageRange(op string, addr, size uint64) (uint64, error) {
	if addr%PageSize != 0 || size%PageSize != 0 {
		return 0, faultf(ErrAlign, "mem: %s(%#x, %#x)", op, addr, size)
	}
	if size > addrLimit || addr > addrLimit-size {
		return 0, faultf(ErrRange, "mem: %s(%#x, %#x)", op, addr, size)
	}
	return addr + size, nil
}

// search returns the index of the first region ending above addr: the
// region holding addr if one does, else where a region at addr would go.
func (m *Memory) search(addr uint64) int {
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.regions[mid].end() <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Map creates zeroed, tag-cleared pages covering [addr, addr+size). Both
// addr and size must be page-aligned, the range must lie inside the 48-bit
// address space, and it must not overlap an existing mapping. A range that
// starts where a mapping ends extends that mapping's region.
func (m *Memory) Map(addr, size uint64) error {
	end, err := pageRange("Map", addr, size)
	if err != nil {
		return err
	}
	if size == 0 {
		return nil
	}
	i := m.search(addr)
	if i < len(m.regions) && m.regions[i].base < end {
		return faultf(ErrOverlap, "mem: Map(%#x, %#x) at %#x", addr, size, max(addr, m.regions[i].base))
	}
	n := int(size / PageSize)
	if i > 0 && m.regions[i-1].end() == addr {
		// The extension may reuse slots an Unmap trimmed off the
		// region's end, so it is cleared.
		r := &m.regions[i-1]
		old := len(r.pages)
		r.pages = slices.Grow(r.pages, n)[:old+n]
		clear(r.pages[old:])
	} else {
		m.regions = slices.Insert(m.regions, i, region{base: addr, pages: make([]page, n)})
	}
	m.mapped += n
	return nil
}

// Unmap removes the pages covering [addr, addr+size), which must be
// page-aligned and inside the 48-bit address space. Unmapped holes in the
// range are ignored, matching munmap semantics. An unmapped page's words
// are not reused; they are freed with the Memory.
func (m *Memory) Unmap(addr, size uint64) error {
	end, err := pageRange("Unmap", addr, size)
	if err != nil {
		return err
	}
	for i := m.search(addr); i < len(m.regions) && m.regions[i].base < end; {
		r := &m.regions[i]
		n := uint64(len(r.pages))
		lo := (max(addr, r.base) - r.base) / PageSize
		hi := (min(end, r.end()) - r.base) / PageSize
		m.drop(r.pages[lo:hi])
		switch {
		case lo == 0 && hi == n:
			m.regions = slices.Delete(m.regions, i, i+1)
		case lo == 0:
			r.base += hi * PageSize
			r.pages = r.pages[hi:]
			i++
		case hi == n:
			r.pages = r.pages[:lo]
			i++
		default:
			// A hole inside one region splits it. The lower part's
			// capacity ends at the hole, so extending it never
			// writes into the upper part's slots.
			upper := region{base: r.base + hi*PageSize, pages: r.pages[hi:]}
			r.pages = r.pages[:lo:lo]
			m.regions = slices.Insert(m.regions, i+1, upper)
			return nil
		}
	}
	return nil
}

// drop takes unmapped pages out of the counts.
func (m *Memory) drop(pages []page) {
	for i := range pages {
		if pages[i].capCount > 0 {
			m.capPages--
			m.capLines -= int(pages[i].capLines)
		}
	}
	m.mapped -= len(pages)
}

// Mapped reports whether addr lies in a mapped page.
func (m *Memory) Mapped(addr uint64) bool {
	_, err := m.pageFor(addr)
	return err == nil
}

// MappedBytes returns the total mapped size in bytes.
func (m *Memory) MappedBytes() uint64 {
	return uint64(m.mapped) * PageSize
}

func (m *Memory) pageFor(addr uint64) (*page, error) {
	if i := m.search(addr); i < len(m.regions) && m.regions[i].base <= addr {
		r := &m.regions[i]
		return &r.pages[(addr-r.base)/PageSize], nil
	}
	return nil, faultf(ErrUnmapped, "mem: access at %#x", addr)
}

// words returns p's words, or nil while p is untouched.
func (m *Memory) words(p *page) *[WordsPerPage]uint64 {
	if p.words == 0 {
		return nil
	}
	i := p.words - 1
	return &m.blocks[i/wordsBlockPages][i%wordsBlockPages]
}

// word returns word w of p.
func (m *Memory) word(p *page, w uint64) uint64 {
	if ws := m.words(p); ws != nil {
		return ws[w]
	}
	return 0
}

// setWord stores val in word w of p. A zero store leaves an untouched page
// untouched.
func (m *Memory) setWord(p *page, w, val uint64) {
	ws := m.words(p)
	if ws == nil {
		if val == 0 {
			return
		}
		ws = m.newWords(p)
	}
	ws[w] = val
}

// newWords gives the untouched page p the next free word slot, allocating
// a block when the last one is full, and returns its words.
func (m *Memory) newWords(p *page) *[WordsPerPage]uint64 {
	i := m.slots
	if i%wordsBlockPages == 0 {
		m.blocks = append(m.blocks, new(wordsBlock))
	}
	m.slots++
	p.words = i + 1
	return &m.blocks[i/wordsBlockPages][i%wordsBlockPages]
}

// setTag sets the tag of granule g of p to v, keeping the page's and the
// Memory's tag counts in step, and reports whether the tag changed.
func (m *Memory) setTag(p *page, g uint, v bool) bool {
	bit := uint8(1) << (g % 8)
	if (p.tags[g/8]&bit != 0) == v {
		return false
	}
	line := g / GranulesPerLine
	if v {
		if p.lineTagMask(line) == 0 {
			p.capLines++
			m.capLines++
		}
		if p.capCount == 0 {
			m.capPages++
		}
		p.tags[g/8] |= bit
		p.capCount++
		return true
	}
	p.tags[g/8] &^= bit
	p.capCount--
	if p.lineTagMask(line) == 0 {
		p.capLines--
		m.capLines--
	}
	if p.capCount == 0 {
		m.capPages--
	}
	return true
}

// LoadWord performs a capability-checked 8-byte data load.
func (m *Memory) LoadWord(auth cap.Capability, addr uint64) (uint64, error) {
	// Capability checks precede alignment, as in the CHERI ISA: a tag or
	// bounds violation is reported even for a misaligned address.
	if err := auth.CheckAccess("load", addr, WordSize, cap.PermLoad); err != nil {
		return 0, err
	}
	if addr%WordSize != 0 {
		return 0, faultf(ErrAlign, "mem: LoadWord(%#x)", addr)
	}
	p, err := m.pageFor(addr)
	if err != nil {
		return 0, err
	}
	m.stats.LoadWords++
	return m.word(p, addr%PageSize/WordSize), nil
}

// StoreWord performs a capability-checked 8-byte data store. A data store
// over a tagged granule clears its tag: this is the architectural rule that
// makes capabilities unforgeable (§2.2).
func (m *Memory) StoreWord(auth cap.Capability, addr, val uint64) error {
	if err := auth.CheckAccess("store", addr, WordSize, cap.PermStore); err != nil {
		return err
	}
	if addr%WordSize != 0 {
		return faultf(ErrAlign, "mem: StoreWord(%#x)", addr)
	}
	return m.RawStoreWord(addr, val)
}

// LoadCap performs a capability-checked 16-byte capability load. Loading an
// untagged granule yields data wrapped in an untagged capability, never an
// error: programs may legitimately copy data with capability-width loads.
func (m *Memory) LoadCap(auth cap.Capability, addr uint64) (cap.Capability, error) {
	if err := auth.CheckAccess("loadcap", addr, GranuleSize, cap.PermLoad); err != nil {
		return cap.Null, err
	}
	if addr%GranuleSize != 0 {
		return cap.Null, faultf(ErrAlign, "mem: LoadCap(%#x)", addr)
	}
	p, err := m.pageFor(addr)
	if err != nil {
		return cap.Null, err
	}
	w := addr % PageSize / WordSize
	g := uint(addr % PageSize / GranuleSize)
	tag := p.tagAt(g)
	if tag && !auth.Perms().Has(cap.PermLoadCap) {
		// Without PermLoadCap the data is loaded but the tag is
		// stripped, per the CHERI ISA.
		tag = false
	}
	m.stats.CapLoads++
	return cap.Decode(m.word(p, w), m.word(p, w+1), tag), nil
}

// StoreCap performs a capability-checked 16-byte capability store. Storing a
// tagged capability requires PermStoreCap (and PermStoreLocalCap for
// non-global capabilities), sets the granule's tag, and marks the page's PTE
// CapDirty — trapping once per clean page, which is how the OS learns which
// pages can hold capabilities (§3.4.2).
func (m *Memory) StoreCap(auth cap.Capability, addr uint64, c cap.Capability) error {
	need := cap.PermStore
	if c.Tag() {
		need |= cap.PermStoreCap
		if !c.Perms().Has(cap.PermGlobal) {
			need |= cap.PermStoreLocalCap
		}
	}
	if err := auth.CheckAccess("storecap", addr, GranuleSize, need); err != nil {
		return err
	}
	if addr%GranuleSize != 0 {
		return faultf(ErrAlign, "mem: StoreCap(%#x)", addr)
	}
	return m.RawStoreCap(addr, c)
}

// RawLoadWord loads a word without capability checks (trusted-runtime view).
func (m *Memory) RawLoadWord(addr uint64) (uint64, error) {
	if addr%WordSize != 0 {
		return 0, faultf(ErrAlign, "mem: RawLoadWord(%#x)", addr)
	}
	p, err := m.pageFor(addr)
	if err != nil {
		return 0, err
	}
	return m.word(p, addr%PageSize/WordSize), nil
}

// RawStoreWord stores a word without capability checks, clearing the tag of
// the containing granule exactly as a checked data store would.
func (m *Memory) RawStoreWord(addr, val uint64) error {
	if addr%WordSize != 0 {
		return faultf(ErrAlign, "mem: RawStoreWord(%#x)", addr)
	}
	p, err := m.pageFor(addr)
	if err != nil {
		return err
	}
	if m.setTag(p, uint(addr%PageSize/GranuleSize), false) {
		m.stats.TagsClear++
	}
	m.setWord(p, addr%PageSize/WordSize, val)
	m.stats.StoreWords++
	return nil
}

// RawLoadCap loads a capability image and tag without checks.
func (m *Memory) RawLoadCap(addr uint64) (cap.Capability, error) {
	if addr%GranuleSize != 0 {
		return cap.Null, faultf(ErrAlign, "mem: RawLoadCap(%#x)", addr)
	}
	p, err := m.pageFor(addr)
	if err != nil {
		return cap.Null, err
	}
	w := addr % PageSize / WordSize
	return cap.Decode(m.word(p, w), m.word(p, w+1), p.tagAt(uint(addr%PageSize/GranuleSize))), nil
}

// RawStoreCap stores a capability image and tag without authority checks,
// still honouring the page's capability-store-inhibit bit and maintaining
// CapDirty.
func (m *Memory) RawStoreCap(addr uint64, c cap.Capability) error {
	if addr%GranuleSize != 0 {
		return faultf(ErrAlign, "mem: RawStoreCap(%#x)", addr)
	}
	p, err := m.pageFor(addr)
	if err != nil {
		return err
	}
	if c.Tag() && p.capStoreInhibit {
		return faultf(ErrCapStoreInhibit, "mem: RawStoreCap(%#x)", addr)
	}
	w := addr % PageSize / WordSize
	lo, hi := c.Encode()
	m.setWord(p, w, lo)
	m.setWord(p, w+1, hi)
	if m.setTag(p, uint(addr%PageSize/GranuleSize), c.Tag()) {
		if c.Tag() {
			m.stats.TagsSet++
			if !p.capDirty {
				p.capDirty = true
				m.stats.DirtyTraps++
			}
		} else {
			m.stats.TagsClear++
		}
	}
	m.stats.CapStores++
	return nil
}

// Tag reports the tag bit of the granule containing addr.
func (m *Memory) Tag(addr uint64) (bool, error) {
	p, err := m.pageFor(addr)
	if err != nil {
		return false, err
	}
	return p.tagAt(uint(addr % PageSize / GranuleSize)), nil
}

// ClearTag clears the tag of the granule containing addr without touching
// its data — the revocation primitive: the word's bit pattern survives but
// it can never again be dereferenced.
func (m *Memory) ClearTag(addr uint64) error {
	p, err := m.pageFor(addr)
	if err != nil {
		return err
	}
	if m.setTag(p, uint(addr%PageSize/GranuleSize), false) {
		m.stats.TagsClear++
	}
	return nil
}

// CLoadTags returns the tag bits of the GranulesPerLine granules in the
// cache line at addr (which must be line-aligned) without loading the data
// (§3.4.1). Bit i corresponds to granule i of the line. A zero result means
// the line can be skipped by a sweep.
func (m *Memory) CLoadTags(addr uint64) (uint8, error) {
	if addr%LineSize != 0 {
		return 0, faultf(ErrAlign, "mem: CLoadTags(%#x)", addr)
	}
	p, err := m.pageFor(addr)
	if err != nil {
		return 0, err
	}
	m.stats.TagProbes++
	return p.lineTagMask(uint(addr % PageSize / LineSize)), nil
}

// PageView is a borrowed read-only view of one mapped page: the sweep hot
// loop resolves the page-table lookup once per page and then reads tags and
// granules through the view, with no lookup per line or granule. Reads
// through a view have no architectural event accounting, so concurrent
// readers may take views of the same memory. Any Map or Unmap
// invalidates every view: extending a region can move its page slots. A
// view must not outlive the sweep that took it, and mutating the memory
// through other accessors while holding a view is the caller's concurrency
// problem.
type PageView struct {
	p     *page
	words *[WordsPerPage]uint64 // nil while the page is untouched
}

// PageView returns a view of the mapped page at base (which must be
// page-aligned).
func (m *Memory) PageView(base uint64) (PageView, error) {
	if base%PageSize != 0 {
		return PageView{}, faultf(ErrAlign, "mem: PageView(%#x)", base)
	}
	p, err := m.pageFor(base)
	if err != nil {
		return PageView{}, err
	}
	return PageView{p: p, words: m.words(p)}, nil
}

// TagWord returns tag word i (0..GranulesPerPage/64-1) of the page's tag
// bitmap, bit j for granule 64i+j: the tags of 16 lines in one read.
func (v PageView) TagWord(i uint) uint64 { return binary.LittleEndian.Uint64(v.p.tags[i*8:]) }

// Granule returns the two data words and tag of granule index g
// (0..GranulesPerPage-1).
func (v PageView) Granule(g uint) (lo, hi uint64, tag bool) {
	if v.words != nil {
		w := g * (GranuleSize / WordSize)
		lo, hi = v.words[w], v.words[w+1]
	}
	return lo, hi, v.p.tagAt(g)
}

// CapCount returns the page's tagged-granule count.
func (v PageView) CapCount() int { return int(v.p.capCount) }

// CapLines returns the number of the page's lines holding a tagged granule:
// the lines a CLoadTags sweep reads.
func (v PageView) CapLines() int { return int(v.p.capLines) }

// SetCapStoreInhibit sets or clears the capability-store-inhibit PTE bit of
// the page containing addr.
func (m *Memory) SetCapStoreInhibit(addr uint64, v bool) error {
	p, err := m.pageFor(addr)
	if err != nil {
		return err
	}
	p.capStoreInhibit = v
	return nil
}

// CapDirty reports the PTE CapDirty flag of the page containing addr.
func (m *Memory) CapDirty(addr uint64) (bool, error) {
	p, err := m.pageFor(addr)
	if err != nil {
		return false, err
	}
	return p.capDirty, nil
}

// AppendCapDirtyPages appends the ascending base addresses of all CapDirty
// pages to dst and returns it — the system API (akin to Windows'
// GetWriteWatch, footnote 4) a sweep uses to restrict itself to pages that
// may contain capabilities. The sweeper reuses one backing slice across
// sweeps instead of allocating a page list per call.
func (m *Memory) AppendCapDirtyPages(dst []uint64) []uint64 {
	for _, r := range m.regions {
		for i := range r.pages {
			if r.pages[i].capDirty {
				dst = append(dst, r.base+uint64(i)*PageSize)
			}
		}
	}
	return dst
}

// PageCount returns the number of mapped pages, without materialising the
// page list the way AppendAllPages does.
func (m *Memory) PageCount() uint64 { return uint64(m.mapped) }

// AppendAllPages appends the ascending base addresses of every mapped page
// to dst and returns it, for callers reusing one backing slice across
// sweeps.
func (m *Memory) AppendAllPages(dst []uint64) []uint64 {
	dst = slices.Grow(dst, m.mapped)
	for _, r := range m.regions {
		for i := range r.pages {
			dst = append(dst, r.base+uint64(i)*PageSize)
		}
	}
	return dst
}

// LaunderCapDirty clears CapDirty on the page at base if the page holds no
// tagged granules, returning whether it was cleared. Sweeps call this to
// re-clean pages whose capabilities have all been overwritten or revoked
// (§3.4.2: a page "can be marked clean again if found to be without
// capabilities on the next sweep").
func (m *Memory) LaunderCapDirty(base uint64) (bool, error) {
	p, err := m.pageFor(base)
	if err != nil {
		return false, err
	}
	if p.capDirty && p.capCount == 0 {
		p.capDirty = false
		return true, nil
	}
	return false, nil
}

// Density returns the fraction of mapped pages containing at least one
// capability and the fraction of cache lines containing one — Table 2's
// "pages with pointers" and Figure 8a's line-granularity density. The paper
// measured these from core dumps taken when the quarantine buffer was full
// (§5.3), so callers sampling for Table 2 should measure just before a
// sweep.
func (m *Memory) Density() (pageDensity, lineDensity float64) {
	if m.mapped == 0 {
		return 0, 0
	}
	return float64(m.capPages) / float64(m.mapped),
		float64(m.capLines) / float64(m.mapped*LinesPerPage)
}

// CheckTagInvariant verifies the page table's bookkeeping against a
// recount: every page's tag counts match its tag bitmap, the Memory's page,
// cap-page and cap-line counts match the pages, and the regions are
// non-empty, ascending, disjoint and inside the 48-bit address space. Tests
// call it after workloads to catch accounting drift.
func (m *Memory) CheckTagInvariant() bool {
	var mapped, capPages, capLines int
	for i := range m.regions {
		r := &m.regions[i]
		if len(r.pages) == 0 || r.end() > addrLimit || i > 0 && r.base < m.regions[i-1].end() {
			return false
		}
		for j := range r.pages {
			p := &r.pages[j]
			granules, lines := p.countTags()
			if int(p.capCount) != granules || int(p.capLines) != lines {
				return false
			}
			if granules > 0 {
				capPages++
				capLines += lines
			}
		}
		mapped += len(r.pages)
	}
	return mapped == m.mapped && capPages == m.capPages && capLines == m.capLines
}
