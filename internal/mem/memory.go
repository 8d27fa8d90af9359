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
	"slices"

	"repro/internal/cap"
)

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
// mutation; the parallel sweeper shards read-only and applies revocations
// through a lock owned by the revoker.
type Memory struct {
	pages map[uint64]*page // keyed by virtual page number
	stats Stats
}

// New returns an empty memory with no mappings.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Stats returns a snapshot of the cumulative event counters.
func (m *Memory) Stats() Stats { return m.stats }

// Map creates zeroed, tag-cleared pages covering [addr, addr+size). Both
// addr and size must be page-aligned, and the range must not overlap an
// existing mapping.
//
// The pages of one call are allocated together as one slab, one host
// object instead of one per page. A slab stays reachable until its last
// page is unmapped, so pages that core's UnmapLarge mode retires (the only
// unmapping in the program) keep their host memory until the Memory is
// dropped; a Memory lives for one job or one live session.
func (m *Memory) Map(addr, size uint64) error {
	if addr%PageSize != 0 || size%PageSize != 0 {
		return faultf(ErrAlign, "mem: Map(%#x, %#x)", addr, size)
	}
	for a := addr; a < addr+size; a += PageSize {
		if _, ok := m.pages[a/PageSize]; ok {
			return faultf(ErrOverlap, "mem: Map(%#x, %#x) at %#x", addr, size, a)
		}
	}
	slab := make([]page, size/PageSize)
	for i := range slab {
		m.pages[addr/PageSize+uint64(i)] = &slab[i]
	}
	return nil
}

// Unmap removes the pages covering [addr, addr+size). Unmapped holes in the
// range are ignored, matching munmap semantics.
func (m *Memory) Unmap(addr, size uint64) error {
	if addr%PageSize != 0 || size%PageSize != 0 {
		return faultf(ErrAlign, "mem: Unmap(%#x, %#x)", addr, size)
	}
	for a := addr; a < addr+size; a += PageSize {
		delete(m.pages, a/PageSize)
	}
	return nil
}

// Mapped reports whether addr lies in a mapped page.
func (m *Memory) Mapped(addr uint64) bool {
	_, ok := m.pages[addr/PageSize]
	return ok
}

// MappedBytes returns the total mapped size in bytes.
func (m *Memory) MappedBytes() uint64 {
	return uint64(len(m.pages)) * PageSize
}

func (m *Memory) pageFor(addr uint64) (*page, error) {
	p, ok := m.pages[addr/PageSize]
	if !ok {
		return nil, faultf(ErrUnmapped, "mem: access at %#x", addr)
	}
	return p, nil
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
	return p.words[addr%PageSize/WordSize], nil
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
	return cap.Decode(p.words[w], p.words[w+1], tag), nil
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
	return p.words[addr%PageSize/WordSize], nil
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
	g := uint(addr % PageSize / GranuleSize)
	if p.tagAt(g) {
		p.setTag(g, false)
		m.stats.TagsClear++
	}
	p.words[addr%PageSize/WordSize] = val
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
	return cap.Decode(p.words[w], p.words[w+1], p.tagAt(uint(addr%PageSize/GranuleSize))), nil
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
	g := uint(addr % PageSize / GranuleSize)
	lo, hi := c.Encode()
	p.words[w] = lo
	p.words[w+1] = hi
	old := p.tagAt(g)
	p.setTag(g, c.Tag())
	switch {
	case c.Tag() && !old:
		m.stats.TagsSet++
		if !p.capDirty {
			p.capDirty = true
			m.stats.DirtyTraps++
		}
	case !c.Tag() && old:
		m.stats.TagsClear++
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
	g := uint(addr % PageSize / GranuleSize)
	if p.tagAt(g) {
		p.setTag(g, false)
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

// PeekLineTags is CLoadTags without the architectural event accounting: a
// pure read the parallel sweeper can issue from concurrent shards (the
// sweeper keeps its own probe counters).
func (m *Memory) PeekLineTags(addr uint64) (uint8, error) {
	if addr%LineSize != 0 {
		return 0, faultf(ErrAlign, "mem: PeekLineTags(%#x)", addr)
	}
	p, err := m.pageFor(addr)
	if err != nil {
		return 0, err
	}
	return p.lineTagMask(uint(addr % PageSize / LineSize)), nil
}

// PeekWords returns the two words of the granule at addr and its tag without
// any accounting; the sweep inner loop is built on it.
func (m *Memory) PeekWords(addr uint64) (lo, hi uint64, tag bool, err error) {
	if addr%GranuleSize != 0 {
		return 0, 0, false, faultf(ErrAlign, "mem: PeekWords(%#x)", addr)
	}
	p, err := m.pageFor(addr)
	if err != nil {
		return 0, 0, false, err
	}
	w := addr % PageSize / WordSize
	return p.words[w], p.words[w+1], p.tagAt(uint(addr % PageSize / GranuleSize)), nil
}

// PageView is a borrowed read-only view of one mapped page: the sweep hot
// loop resolves the page-table lookup once per page and then reads tags and
// granules through the view, instead of paying a map lookup per PeekLineTags
// and PeekWords call (up to LinesPerPage + GranulesPerPage lookups per page).
// A view is invalidated by Unmap of its page; it must not outlive the sweep
// that took it, and mutating the memory through other accessors while
// holding a view is the caller's concurrency problem (same rules as the
// Peek* accessors it replaces).
type PageView struct {
	p *page
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
	return PageView{p: p}, nil
}

// LineTagMask returns the tag bits of line index line (0..LinesPerPage-1),
// bit i for granule i of the line — PeekLineTags without the per-call page
// lookup.
func (v PageView) LineTagMask(line uint) uint8 { return v.p.lineTagMask(line) }

// Granule returns the two data words and tag of granule index g
// (0..GranulesPerPage-1) — PeekWords without the per-call page lookup.
func (v PageView) Granule(g uint) (lo, hi uint64, tag bool) {
	w := g * (GranuleSize / WordSize)
	return v.p.words[w], v.p.words[w+1], v.p.tagAt(g)
}

// CapCount returns the page's tagged-granule count.
func (v PageView) CapCount() int { return v.p.capCount }

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

// CapDirtyPages returns the sorted base addresses of all CapDirty pages —
// the system API (akin to Windows' GetWriteWatch, footnote 4) a sweep uses
// to restrict itself to pages that may contain capabilities.
func (m *Memory) CapDirtyPages() []uint64 {
	return m.AppendCapDirtyPages(make([]uint64, 0, len(m.pages)))
}

// AppendCapDirtyPages appends the sorted base addresses of all CapDirty
// pages to dst and returns it — CapDirtyPages for callers (the sweeper, the
// campaign loop) that reuse one backing slice across sweeps instead of
// allocating a page list per call.
func (m *Memory) AppendCapDirtyPages(dst []uint64) []uint64 {
	start := len(dst)
	for vpn, p := range m.pages {
		if p.capDirty {
			dst = append(dst, vpn*PageSize)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// PageCount returns the number of mapped pages, without materialising the
// page list the way AllPages does.
func (m *Memory) PageCount() uint64 { return uint64(len(m.pages)) }

// AllPages returns the sorted base addresses of every mapped page.
func (m *Memory) AllPages() []uint64 {
	return m.AppendAllPages(make([]uint64, 0, len(m.pages)))
}

// AppendAllPages appends the sorted base addresses of every mapped page to
// dst and returns it, for callers reusing one backing slice across sweeps.
func (m *Memory) AppendAllPages(dst []uint64) []uint64 {
	start := len(dst)
	for vpn := range m.pages {
		dst = append(dst, vpn*PageSize)
	}
	slices.Sort(dst[start:])
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

// PageCapCount returns the number of tagged granules in the page at base.
func (m *Memory) PageCapCount(base uint64) (int, error) {
	p, err := m.pageFor(base)
	if err != nil {
		return 0, err
	}
	return p.capCount, nil
}

// PageCapLines returns the number of cache lines holding at least one tagged
// granule in the page at base (CLoadTags-granularity density, Figure 8).
func (m *Memory) PageCapLines(base uint64) (int, error) {
	p, err := m.pageFor(base)
	if err != nil {
		return 0, err
	}
	return p.capLines(), nil
}

// Density returns the fraction of mapped pages containing at least one
// capability and the fraction of cache lines containing one — Table 2's
// "pages with pointers" and Figure 8a's line-granularity density. The paper
// measured these from core dumps taken when the quarantine buffer was full
// (§5.3), so callers sampling for Table 2 should measure just before a
// sweep.
func (m *Memory) Density() (pageDensity, lineDensity float64) {
	if len(m.pages) == 0 {
		return 0, 0
	}
	var withCaps, lines int
	for _, p := range m.pages {
		if p.capCount > 0 {
			withCaps++
			lines += p.capLines()
		}
	}
	total := len(m.pages)
	return float64(withCaps) / float64(total),
		float64(lines) / float64(total*LinesPerPage)
}

// CheckTagInvariant verifies that every page's capCount matches its tag
// bitmap; tests call it after workloads to catch accounting drift.
func (m *Memory) CheckTagInvariant() bool {
	for _, p := range m.pages {
		if p.capCount != p.countTags() {
			return false
		}
	}
	return true
}
