package mem

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cap"
)

// The model-based test drives a Memory and a brute-force reference — a Go
// map of fully materialised pages — through the same operation stream and
// compares them after every operation. An operation is four bytes: an
// opcode, a page index into a small window of modelPages pages, a granule
// index within the page, and an argument.

const (
	modelBase  = uint64(0x7f0000000000)
	modelPages = 24
	opBytes    = 4
)

// Opcodes of the operation stream, taken modulo numOps.
const (
	opMap = iota
	opUnmap
	opStoreWord
	opStoreCap
	opClearTag
	opLaunder
	opMapOutside
	opStoreSelfCaps
	numOps
)

// refPage is the reference state of one mapped page.
type refPage struct {
	words   [WordsPerPage]uint64
	tags    [GranulesPerPage]bool
	written [LinesPerPage]bool // the line took a nonzero store since the page was mapped
	dirty   bool
}

// refMemory is the reference memory: pages keyed by base address, and the
// event counters the operations under test move.
type refMemory struct {
	pages map[uint64]*refPage
	stats Stats
}

func (r *refMemory) mapPages(base uint64, n int) error {
	for i := range n {
		if r.pages[base+uint64(i)*PageSize] != nil {
			return ErrOverlap
		}
	}
	for i := range n {
		r.pages[base+uint64(i)*PageSize] = &refPage{}
	}
	return nil
}

func (r *refMemory) storeWord(addr, val uint64) error {
	p := r.pages[addr&^(PageSize-1)]
	if p == nil {
		return ErrUnmapped
	}
	if g := addr % PageSize / GranuleSize; p.tags[g] {
		p.tags[g] = false
		r.stats.TagsClear++
	}
	p.words[addr%PageSize/WordSize] = val
	l := addr % PageSize / LineSize
	p.written[l] = p.written[l] || val != 0
	r.stats.StoreWords++
	return nil
}

func (r *refMemory) storeCap(addr uint64, c cap.Capability) error {
	p := r.pages[addr&^(PageSize-1)]
	if p == nil {
		return ErrUnmapped
	}
	lo, hi := c.Encode()
	w := addr % PageSize / WordSize
	p.words[w], p.words[w+1] = lo, hi
	l := addr % PageSize / LineSize
	p.written[l] = p.written[l] || lo|hi != 0
	g := addr % PageSize / GranuleSize
	switch {
	case c.Tag() && !p.tags[g]:
		r.stats.TagsSet++
		if !p.dirty {
			p.dirty = true
			r.stats.DirtyTraps++
		}
	case !c.Tag() && p.tags[g]:
		r.stats.TagsClear++
	}
	p.tags[g] = c.Tag()
	r.stats.CapStores++
	return nil
}

// storeSelfCaps is the reference for Memory.StoreSelfCaps: StoreCap of
// auth, its address moved to the granule, into each marked granule in
// ascending order, stopping at the first error. An authority failure is
// reported as its cap sentinel, which the Memory's error wraps.
func (r *refMemory) storeSelfCaps(auth cap.Capability, base uint64, mask *PageMask) error {
	for g := uint(0); g < GranulesPerPage; g++ {
		if mask[g/64]&(1<<(g%64)) == 0 {
			continue
		}
		addr := base + uint64(g)*GranuleSize
		c := auth.SetAddr(addr)
		need := cap.PermStore
		if c.Tag() {
			need |= cap.PermStoreCap
			if !c.Perms().Has(cap.PermGlobal) {
				need |= cap.PermStoreLocalCap
			}
		}
		if err := auth.CheckAccess("storecap", addr, GranuleSize, need); err != nil {
			return errors.Unwrap(err)
		}
		if err := r.storeCap(addr, c); err != nil {
			return err
		}
	}
	return nil
}

func (p *refPage) holdsCap() bool { return slices.Contains(p.tags[:], true) }

// selfCapsAuth picks the authority of a page-store operation from its
// argument: the whole address space, or one that fails on some or all of
// the page's granules — bounds covering only the page's lower or upper
// half, no tag, no PermStoreCap, or a local capability without
// PermStoreLocalCap.
func selfCapsAuth(auth cap.Capability, base uint64, arg byte) cap.Capability {
	switch arg % 6 {
	case 0:
		return auth
	case 1:
		c, _ := auth.SetBoundsExact(base, PageSize/2)
		return c
	case 2:
		c, _ := auth.SetBoundsExact(base+PageSize/2, PageSize/2)
		return c
	case 3:
		return auth.ClearTag()
	case 4:
		return auth.ClearPerms(cap.PermStoreCap)
	default:
		return auth.ClearPerms(cap.PermGlobal | cap.PermStoreLocalCap)
	}
}

// selfCapsMask derives a page-store operation's granule mask from its
// granule and argument bytes: granule g alone, a dense or a sparse
// pseudo-random mask, or the run of granules from g to the page's end.
func selfCapsMask(g, arg byte) (mask PageMask) {
	x := uint64(g)<<8 | uint64(arg)
	draw := func() uint64 { // splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	switch arg / 6 % 4 {
	case 0:
		mask.Set(uint(g))
	case 1:
		for i := range mask {
			mask[i] = draw()
		}
	case 2:
		for i := range mask {
			mask[i] = draw() & draw() & draw()
		}
	default:
		for i := uint(g); i < GranulesPerPage; i++ {
			mask.Set(i)
		}
	}
	return mask
}

// applyOp decodes one operation, applies it to m and ref, and returns the
// two errors for the caller to compare. Stores are authorised by auth,
// which covers the whole address space, and store obj as the capability.
func applyOp(m *Memory, ref *refMemory, op []byte, auth, obj cap.Capability) (got, want error) {
	base := modelBase + uint64(op[1]%modelPages)*PageSize
	granule := base + uint64(op[2])*GranuleSize
	arg := op[3]
	switch op[0] % numOps {
	case opMap:
		n := 1 + int(arg%6)
		return m.Map(base, uint64(n)*PageSize), ref.mapPages(base, n)
	case opUnmap:
		n := 1 + int(arg%6)
		for i := range n {
			delete(ref.pages, base+uint64(i)*PageSize)
		}
		return m.Unmap(base, uint64(n)*PageSize), nil
	case opStoreWord:
		addr := granule + uint64(arg&1)*WordSize
		var val uint64 // a quarter of the stores are zero stores
		if arg%4 != 0 {
			val = uint64(arg)<<32 | uint64(op[2])
		}
		return m.StoreWord(auth, addr, val), ref.storeWord(addr, val)
	case opStoreCap:
		c := [...]cap.Capability{obj, obj.ClearTag(), cap.Null}[arg%3]
		return m.StoreCap(auth, granule, c), ref.storeCap(granule, c)
	case opStoreSelfCaps:
		a, mask := selfCapsAuth(auth, base, arg), selfCapsMask(op[2], arg)
		return m.StoreSelfCaps(a, base, &mask), ref.storeSelfCaps(a, base, &mask)
	case opClearTag:
		err := m.ClearTag(granule)
		p := ref.pages[base]
		if p == nil {
			return err, ErrUnmapped
		}
		if g := op[2]; p.tags[g] {
			p.tags[g] = false
			ref.stats.TagsClear++
		}
		return err, nil
	case opLaunder:
		cleaned, err := m.LaunderCapDirty(base)
		p := ref.pages[base]
		if p == nil {
			return err, ErrUnmapped
		}
		wantCleaned := p.dirty && !p.holdsCap()
		if cleaned != wantCleaned {
			return errors.New("LaunderCapDirty disagrees with the reference"), nil
		}
		if wantCleaned {
			p.dirty = false
		}
		return err, nil
	default: // opMapOutside: every one of these ranges must be refused
		ranges := [...][2]uint64{
			{^uint64(0) &^ (PageSize - 1), 2 * PageSize}, // wraps past 2^64
			{addrLimit, PageSize},                        // starts at 2^48
			{addrLimit - PageSize, 2 * PageSize},         // straddles 2^48
			{0, addrLimit + PageSize},                    // larger than the space
		}
		r := ranges[arg%uint8(len(ranges))]
		return m.Map(r[0], r[1]), ErrRange
	}
}

// checkModel compares every observable of m with the reference.
func checkModel(t testing.TB, m *Memory, ref *refMemory, step int) {
	t.Helper()
	if !m.CheckTagInvariant() {
		t.Fatalf("step %d: tag invariant violated", step)
	}
	if m.Stats() != ref.stats {
		t.Fatalf("step %d: stats %+v, reference %+v", step, m.Stats(), ref.stats)
	}

	var all, dirty []uint64
	var capPages, capLines int
	for base, p := range ref.pages {
		all = append(all, base)
		if p.dirty {
			dirty = append(dirty, base)
		}
		if p.holdsCap() {
			capPages++
		}
		for l := 0; l < LinesPerPage; l++ {
			if slices.Contains(p.tags[l*GranulesPerLine:(l+1)*GranulesPerLine], true) {
				capLines++
			}
		}
	}
	slices.Sort(all)
	slices.Sort(dirty)
	prefix := []uint64{1}
	gotAll := m.AppendAllPages(prefix)
	gotDirty := m.AppendCapDirtyPages(prefix)
	if !slices.Equal(gotAll[1:], all) || gotAll[0] != 1 {
		t.Fatalf("step %d: AppendAllPages = %#x, reference %#x", step, gotAll[1:], all)
	}
	if !slices.Equal(gotDirty[1:], dirty) || gotDirty[0] != 1 {
		t.Fatalf("step %d: AppendCapDirtyPages = %#x, reference %#x", step, gotDirty[1:], dirty)
	}
	// Equal to the sorted reference lists, so ascending; strictly so
	// because the reference keys are distinct.
	if m.PageCount() != uint64(len(all)) || m.MappedBytes() != uint64(len(all))*PageSize {
		t.Fatalf("step %d: PageCount %d, MappedBytes %d, reference %d pages",
			step, m.PageCount(), m.MappedBytes(), len(all))
	}

	wantPage, wantLine := 0.0, 0.0
	if n := len(all); n > 0 {
		wantPage = float64(capPages) / float64(n)
		wantLine = float64(capLines) / float64(n*LinesPerPage)
	}
	if p, l := m.Density(); p != wantPage || l != wantLine {
		t.Fatalf("step %d: Density = %v/%v, recount %v/%v", step, p, l, wantPage, wantLine)
	}

	for i := range modelPages {
		base := modelBase + uint64(i)*PageSize
		rp := ref.pages[base]
		v, err := m.PageView(base)
		if rp == nil {
			if !errors.Is(err, ErrUnmapped) || m.Mapped(base) {
				t.Fatalf("step %d: page %#x mapped in Memory only", step, base)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: page %#x: %v", step, base, err)
		}
		if table, written := v.p.table != 0, slices.Contains(rp.written[:], true); table != written {
			t.Fatalf("step %d: page %#x has a line table %v, reference written %v", step, base, table, written)
		}
		for l := uint(0); l < LinesPerPage; l++ {
			if has := m.table(v.p)[l] != 0; has != rp.written[l] {
				t.Fatalf("step %d: page %#x line %d has words %v, reference written %v", step, base, l, has, rp.written[l])
			}
		}
		for g := uint(0); g < GranulesPerPage; g++ {
			lo, hi, tag := v.Granule(g)
			if lo != rp.words[2*g] || hi != rp.words[2*g+1] || tag != rp.tags[g] {
				t.Fatalf("step %d: page %#x granule %d = %#x %#x %v, reference %#x %#x %v", step, base, g,
					lo, hi, tag, rp.words[2*g], rp.words[2*g+1], rp.tags[g])
			}
		}
		if w, err := m.RawLoadWord(base + PageSize - WordSize); err != nil || w != rp.words[WordsPerPage-1] {
			t.Fatalf("step %d: last word of page %#x = %#x, %v", step, base, w, err)
		}
		if d, _ := m.CapDirty(base); d != rp.dirty {
			t.Fatalf("step %d: page %#x CapDirty %v, reference %v", step, base, d, rp.dirty)
		}
	}
}

// runModel applies the operations encoded in ops to a fresh Memory and to
// the reference, checking them against each other after every operation.
func runModel(t testing.TB, ops []byte) {
	t.Helper()
	auth := cap.MustRoot(0, 1<<48)
	obj, err := auth.SetBoundsExact(modelBase+0x200, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, ref := New(), &refMemory{pages: map[uint64]*refPage{}}
	for i := 0; i+opBytes <= len(ops); i += opBytes {
		got, want := applyOp(m, ref, ops[i:i+opBytes], auth, obj)
		if (got == nil) != (want == nil) || want != nil && !errors.Is(got, want) {
			t.Fatalf("step %d (op %v): error %v, reference %v", i/opBytes, ops[i:i+opBytes], got, want)
		}
		checkModel(t, m, ref, i/opBytes)
	}
}

// modelScenarios are operation streams for the page-table shapes the
// random streams reach only by chance; they seed FuzzMemoryOps too.
var modelScenarios = map[string][]byte{
	// A heap growing upwards: each Map extends the one region.
	"ascending": {
		opMap, 0, 0, 1, opMap, 2, 0, 1, opMap, 4, 0, 3,
		opStoreCap, 0, 3, 0, opStoreCap, 5, 7, 0, opStoreWord, 3, 1, 1,
	},
	// Mappings made below one another, each its own region.
	"descending": {
		opMap, 20, 0, 1, opMap, 16, 0, 1, opMap, 12, 0, 1, opMap, 8, 0, 1,
		opStoreCap, 8, 0, 0, opStoreCap, 21, 255, 0, opMap, 18, 0, 1,
		opStoreCap, 18, 0, 0, opMap, 14, 0, 1,
	},
	// Single pages with gaps between them, then overlapping attempts.
	"gappy": {
		opMap, 0, 0, 0, opMap, 3, 0, 0, opMap, 6, 0, 0, opMap, 9, 0, 0,
		opMap, 2, 0, 2, opMap, 8, 0, 0, opStoreCap, 3, 9, 0, opStoreCap, 9, 9, 0,
	},
	// Holes unmapped from one region, split it, and are mapped again.
	"remap-holes": {
		opMap, 0, 0, 5, opMap, 6, 0, 5, opStoreCap, 1, 0, 0, opStoreCap, 5, 4, 0,
		opStoreCap, 7, 8, 0, opUnmap, 4, 0, 2, opUnmap, 1, 0, 0, opMap, 4, 0, 2,
		opStoreCap, 4, 0, 0, opMap, 1, 0, 0, opStoreCap, 1, 1, 0, opUnmap, 0, 0, 5,
		opUnmap, 6, 0, 5, opMap, 0, 0, 5,
	},
	// Zero stores and null capability images leave lines unwritten, until
	// a nonzero store gives a line its words (and its page a line table).
	// A zero store to an unwritten line of a written page leaves the line
	// unwritten.
	"zero-stores": {
		opMap, 0, 0, 3, opStoreWord, 0, 0, 0, opStoreWord, 1, 200, 4,
		opStoreCap, 2, 17, 2, opStoreWord, 3, 5, 1, opStoreWord, 3, 5, 0,
		opStoreWord, 3, 40, 0, opStoreCap, 3, 41, 2, opStoreWord, 3, 40, 1,
		opStoreCap, 0, 1, 0, opClearTag, 0, 1, 0, opLaunder, 0, 0, 0,
	},
	// Tags set, cleared by data stores, by untagged stores and by
	// ClearTag, and pages laundered.
	"tags-and-launder": {
		opMap, 0, 0, 2, opStoreCap, 0, 0, 0, opStoreCap, 0, 1, 0, opStoreCap, 0, 4, 0,
		opLaunder, 0, 0, 0, opStoreWord, 0, 1, 2, opClearTag, 0, 0, 0, opClearTag, 0, 4, 0,
		opLaunder, 0, 0, 0, opStoreCap, 1, 0, 0, opStoreCap, 1, 0, 1,
		opStoreCap, 1, 0, 0, opUnmap, 0, 0, 0, opLaunder, 1, 0, 0,
	},
	// Page stores of self-referential capabilities under each authority
	// and mask shape: an authority that fails part-way leaves the granules
	// below the failure stored; one page is unmapped.
	"self-caps": {
		opMap, 0, 0, 3, opStoreSelfCaps, 0, 5, 0, opStoreSelfCaps, 1, 9, 6,
		opStoreSelfCaps, 2, 3, 13, opStoreSelfCaps, 3, 200, 18, opStoreSelfCaps, 0, 100, 19,
		opStoreSelfCaps, 1, 7, 8, opStoreSelfCaps, 2, 1, 9, opStoreSelfCaps, 3, 2, 10,
		opStoreSelfCaps, 1, 4, 11, opStoreSelfCaps, 5, 0, 12, opStoreWord, 0, 5, 1,
		opStoreSelfCaps, 0, 40, 24, opStoreSelfCaps, 2, 0, 14, opStoreSelfCaps, 3, 200, 20,
		opStoreSelfCaps, 3, 6, 1, opLaunder, 3, 0, 0,
	},
	// Written pages unmapped off a region's end give their line tables
	// and lines back; a Map extension over the trimmed slots, and a page
	// past them, take them again, and one-word stores into the reused
	// lines leave the rest of each line zero.
	"reuse": {
		opMap, 0, 0, 2, opStoreCap, 1, 5, 0, opStoreWord, 2, 4, 1, opStoreCap, 2, 6, 0,
		opUnmap, 1, 0, 1, opMap, 1, 0, 1, opStoreWord, 1, 4, 1, opStoreWord, 2, 7, 3,
		opMap, 3, 0, 0, opStoreWord, 3, 5, 2, opStoreCap, 1, 6, 0,
	},
	// Ranges outside the 48-bit address space.
	"outside": {
		opMapOutside, 0, 0, 0, opMapOutside, 0, 0, 1, opMapOutside, 0, 0, 2,
		opMapOutside, 0, 0, 3, opMap, 0, 0, 0,
	},
}

func TestMemoryMatchesModel(t *testing.T) {
	for name, ops := range modelScenarios {
		t.Run(name, func(t *testing.T) { runModel(t, ops) })
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		ops := make([]byte, opBytes*(50+r.Intn(300)))
		r.Read(ops)
		// Map often enough that most operations land on mapped pages.
		for j := 0; j < len(ops); j += opBytes {
			if r.Intn(5) == 0 {
				ops[j] = opMap
			}
		}
		runModel(t, ops)
	}
}

// FuzzMemoryOps drives Memory and the reference through arbitrary
// operation streams. CI runs it for a fixed budget beside FuzzAddrMap.
func FuzzMemoryOps(f *testing.F) {
	for _, ops := range modelScenarios {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024*opBytes {
			ops = ops[:1024*opBytes]
		}
		runModel(t, ops)
	})
}
