package revoke

import (
	"slices"
	"testing"

	"repro/internal/cap"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// The sweep fuzz target builds a small heap at address 0 from the fuzz
// bytes, paints part of it, and sweeps it twice, checking each sweep against
// refSweep: the per-line walk the kernel replaced, kept here as the
// reference. The input is consumed a byte at a time (zero once exhausted):
//
//	config  bit 0 CapDirty, 1 CLoadTags, 2 Launder, 3-4 kernel (mod 3),
//	        5-6 shards-1, 7 a CHERI cache hierarchy attached
//	pages   1 + n%8 pages, each one kind byte (fuzzPage) and its arguments
//	paints  n%4 shadow ranges: start granule (2 bytes), length in granules
//	regs    n%4 registers: a target (2 bytes), tagged unless its low bit is set
//
// Capability targets are heap granules, two bytes each, so they land in
// painted and unpainted granules alike; the all-zero image decodes to base
// 0, the heap's first granule.

// fuzzInput reads the fuzz bytes, yielding 0 once they run out.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) uint16() uint64 { return uint64(in.byte())<<8 | uint64(in.byte()) }

// Page kinds, taken from the low three bits of a kind byte modulo
// numPageKinds; bit 7 leaves an unmapped page before the page.
const (
	pageEmpty     = iota // mapped, never stored to
	pageFull             // every granule a tagged capability
	pageStale            // capability images whose tags were cleared
	pageZeroImage        // tagged all-zero images: tags but no words
	pageMixed            // n granules: capabilities, zero images, data
	numPageKinds
)

// FuzzSweep checks the sweep kernel against refSweep on fuzzed heaps and
// configurations.
func FuzzSweep(f *testing.F) {
	// Four pages: empty, fully tagged (step 7), three stale images, and
	// three zero images on a page with no words.
	pages := []byte{3, pageEmpty, pageFull, 7, pageStale, 3, 5, 9, 200, pageZeroImage, 3, 0, 17, 255}
	// Paint page 0 (the zero images' base) and half of page 1; one tagged
	// register into page 0, one untagged.
	paintsRegs := []byte{2, 0, 0, 255, 1, 0, 128, 2, 0, 0, 0, 3}
	f.Add(slices.Concat([]byte{0x00}, pages, paintsRegs)) // full, simple, 1 shard
	f.Add(slices.Concat([]byte{0x32}, pages, paintsRegs)) // CLoadTags, vector, 2 shards
	f.Add(slices.Concat([]byte{0x9d}, pages, paintsRegs)) // CapDirty, Launder, unrolled, 1 shard, traffic
	// Six pages with two holes: mixed, empty, stale, fully tagged (step 3),
	// zero images, mixed; three painted ranges and one register.
	gappy := []byte{5,
		pageMixed, 4, 0, 0, 0, 7, 0, 1, 9, 1, 2, 255, 0, 3,
		0x80 | pageEmpty, pageStale, 2, 1, 2, 0x80 | pageFull, 3,
		pageZeroImage, 2, 0, 64, pageMixed, 1, 128, 16, 0,
		3, 0, 0, 0, 2, 0, 255, 5, 0, 40, 1, 1, 2}
	f.Add(slices.Concat([]byte{0xcf}, gappy)) // both assists, Launder, unrolled, 3 shards, traffic
	f.Add(slices.Concat([]byte{0x75}, gappy)) // CapDirty, Launder, vector, 4 shards
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		flags := in.byte()
		cfg := Config{
			UseCapDirty:  flags&1 != 0,
			UseCLoadTags: flags&2 != 0,
			Launder:      flags&4 != 0,
			Kernel:       sim.Kernel(flags >> 3 & 3 % 3),
			Shards:       1 + int(flags>>5&3),
		}
		var ref *mem.Hierarchy
		if flags&0x80 != 0 {
			cfg.Hierarchy, ref = mem.NewCHERIHierarchy(), mem.NewCHERIHierarchy()
		}
		m, sm, regs := buildFuzzHeap(t, &in)
		s := New(m, sm, cfg)
		for sweep := 0; sweep < 2; sweep++ {
			wantRegs := slices.Clone(regs)
			want, tagged, dirty := refSweep(t, m, sm, cfg, ref, wantRegs)
			got, err := s.Sweep(regs)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("sweep %d under %+v:\n got %+v\nwant %+v", sweep, cfg, got, want)
			}
			if !slices.Equal(regs, wantRegs) {
				t.Fatalf("sweep %d: registers %v, want %v", sweep, regs, wantRegs)
			}
			if gotTagged := taggedGranules(t, m); !slices.Equal(gotTagged, tagged) {
				t.Fatalf("sweep %d: tags left at %#x, want %#x", sweep, gotTagged, tagged)
			}
			if gotDirty := m.AppendCapDirtyPages(nil); !slices.Equal(gotDirty, dirty) {
				t.Fatalf("sweep %d: CapDirty pages %#x, want %#x", sweep, gotDirty, dirty)
			}
		}
	})
}

// buildFuzzHeap maps and fills the pages the input describes, paints its
// shadow ranges and returns its register file.
func buildFuzzHeap(t *testing.T, in *fuzzInput) (*mem.Memory, *shadow.Map, []cap.Capability) {
	t.Helper()
	m := mem.New()
	var bases []uint64
	next := uint64(0)
	for n := 1 + int(in.byte()%8); n > 0; n-- {
		kind := in.byte()
		if kind&0x80 != 0 {
			next += mem.PageSize
		}
		bases = append(bases, next)
		if err := m.Map(next, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		next += mem.PageSize
		fillFuzzPage(t, m, in, bases[len(bases)-1], next, kind&7%numPageKinds)
	}
	sm, err := shadow.New(0, next)
	if err != nil {
		t.Fatal(err)
	}
	granules := next / mem.GranuleSize
	for n := in.byte() % 4; n > 0; n-- {
		g := in.uint16() % granules
		size := min(1+uint64(in.byte()), granules-g) * mem.GranuleSize
		if err := sm.Paint(g*mem.GranuleSize, size); err != nil {
			t.Fatal(err)
		}
	}
	var regs []cap.Capability
	for n := in.byte() % 4; n > 0; n-- {
		arg := in.uint16()
		c := fuzzCap(t, arg, next)
		if arg&1 != 0 {
			c = c.ClearTag()
		}
		regs = append(regs, c)
	}
	return m, sm, regs
}

// fuzzCap returns a tagged capability to the 16-byte object at granule arg
// of a heap of size bytes.
func fuzzCap(t *testing.T, arg, size uint64) cap.Capability {
	t.Helper()
	c, err := cap.MustRoot(0, 1<<48).SetBoundsExact(arg%(size/mem.GranuleSize)*mem.GranuleSize, mem.GranuleSize)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fillFuzzPage fills the page at base with the given kind; heapSize bounds
// the capabilities' targets.
func fillFuzzPage(t *testing.T, m *mem.Memory, in *fuzzInput, base, heapSize uint64, kind byte) {
	t.Helper()
	store := func(g uint64, c cap.Capability) {
		if err := m.RawStoreCap(base+g%mem.GranulesPerPage*mem.GranuleSize, c); err != nil {
			t.Fatal(err)
		}
	}
	zero := cap.Decode(0, 0, true) // tagged, with an all-zero image
	switch kind {
	case pageFull:
		step := 1 + uint64(in.byte())
		for g := uint64(0); g < mem.GranulesPerPage; g++ {
			store(g, fuzzCap(t, g*step, heapSize))
		}
	case pageStale:
		for n := in.byte(); n > 0; n-- {
			g := uint64(in.byte())
			store(g, fuzzCap(t, g*uint64(n), heapSize))
			if err := m.ClearTag(base + g%mem.GranulesPerPage*mem.GranuleSize); err != nil {
				t.Fatal(err)
			}
		}
	case pageZeroImage:
		for n := in.byte(); n > 0; n-- {
			store(uint64(in.byte()), zero)
		}
	case pageMixed:
		for n := in.byte(); n > 0; n-- {
			g, arg := uint64(in.byte()), in.uint16()
			switch arg % 4 {
			case 0:
				store(g, zero)
			case 1:
				addr := base + g%mem.GranulesPerPage*mem.GranuleSize + arg/4%2*mem.WordSize
				if err := m.RawStoreWord(addr, arg); err != nil {
					t.Fatal(err)
				}
			default:
				store(g, fuzzCap(t, arg, heapSize))
			}
		}
	}
}

// refSweep returns what one sweep of m under cfg must report and leave
// behind, from the per-line walk the kernel replaced: every line of every
// swept page, its CLoadTags probe, its read, and each tagged granule in it.
// regs is updated in place as the sweep updates its register file. ref, when
// not nil, is charged the sweep's traffic as the sweeper's hierarchy must
// be. It returns the expected stats, the tagged granules left and the
// CapDirty pages left, both ascending. It reads m and leaves it unchanged.
func refSweep(t *testing.T, m *mem.Memory, sm *shadow.Map, cfg Config, ref *mem.Hierarchy, regs []cap.Capability) (want Stats, tagged, dirty []uint64) {
	t.Helper()
	for i := range regs {
		want.RegsScanned++
		if regs[i].Tag() {
			want.ShadowLookups++
			if sm.Revoked(regs[i].Base()) {
				regs[i] = regs[i].ClearTag()
				want.RegsRevoked++
			}
		}
	}
	all := m.AppendAllPages(nil)
	var swept []uint64
	for _, base := range all {
		if d, _ := m.CapDirty(base); d || !cfg.UseCapDirty {
			swept = append(swept, base)
		}
	}
	want.PagesTotal = uint64(len(all))
	want.PagesSwept = uint64(len(swept))
	want.PagesSkipped = want.PagesTotal - want.PagesSwept
	var revoked []uint64
	var windows uint64
	for i, base := range swept {
		if i == 0 || base != swept[i-1]+mem.PageSize {
			want.PageRuns++
		}
		if i == 0 || base/mem.TagLineCoverage != swept[i-1]/mem.TagLineCoverage {
			windows++
		}
		view, err := m.PageView(base)
		if err != nil {
			t.Fatal(err)
		}
		for line := uint(0); line < mem.LinesPerPage; line++ {
			var mask uint8
			for g := uint(0); g < mem.GranulesPerLine; g++ {
				if _, _, tag := view.Granule(line*mem.GranulesPerLine + g); tag {
					mask |= 1 << g
				}
			}
			if cfg.UseCLoadTags {
				want.TagProbes++
				if mask == 0 {
					want.LinesSkipped++
					continue
				}
			}
			want.LinesSwept++
			want.BytesRead += mem.LineSize
			want.WordsRead += mem.LineSize / mem.WordSize
			for g := uint(0); g < mem.GranulesPerLine; g++ {
				if mask&(1<<g) == 0 {
					continue
				}
				lo, hi, _ := view.Granule(line*mem.GranulesPerLine + g)
				want.CapsFound++
				want.ShadowLookups++
				if sm.Revoked(cap.DecodeBase(lo, hi)) {
					revoked = append(revoked, base+uint64(line)*mem.LineSize+uint64(g)*mem.GranuleSize)
				}
			}
		}
	}
	want.CapsRevoked = uint64(len(revoked))
	want.BytesWritten = want.CapsRevoked * mem.GranuleSize
	var linesStored uint64
	for i, addr := range revoked {
		if i == 0 || addr/mem.LineSize != revoked[i-1]/mem.LineSize {
			linesStored++
		}
	}
	if cfg.Kernel == sim.KernelVector {
		want.BytesWritten = want.LinesSwept * mem.LineSize
		linesStored = want.LinesSwept
	}
	if ref != nil {
		var fills uint64
		if cfg.UseCLoadTags {
			fills = windows
		}
		want.Traffic = ref.ChargeSweep(want.LinesSwept, linesStored, want.TagProbes, fills)
		want.TrafficReplayed = true
	}

	for _, addr := range taggedGranules(t, m) {
		if _, found := slices.BinarySearch(revoked, addr); !found {
			tagged = append(tagged, addr)
		}
	}
	for _, base := range m.AppendCapDirtyPages(nil) {
		_, wasSwept := slices.BinarySearch(swept, base)
		i, _ := slices.BinarySearch(tagged, base)
		empty := i == len(tagged) || tagged[i] >= base+mem.PageSize
		if cfg.Launder && wasSwept && empty {
			want.PagesLaunder++
			continue
		}
		dirty = append(dirty, base)
	}
	return want, tagged, dirty
}

// taggedGranules returns the ascending addresses of m's tagged granules.
func taggedGranules(t *testing.T, m *mem.Memory) []uint64 {
	t.Helper()
	var tagged []uint64
	for _, base := range m.AppendAllPages(nil) {
		for addr := base; addr < base+mem.PageSize; addr += mem.GranuleSize {
			tag, err := m.Tag(addr)
			if err != nil {
				t.Fatal(err)
			}
			if tag {
				tagged = append(tagged, addr)
			}
		}
	}
	return tagged
}
