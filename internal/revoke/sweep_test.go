package revoke

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cap"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/sim"
)

const heapBase = uint64(0x10000000)
const heapSize = uint64(16 * mem.PageSize)

type fixture struct {
	mem    *mem.Memory
	shadow *shadow.Map
	heap   cap.Capability
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	m := mem.New()
	if err := m.Map(heapBase, heapSize); err != nil {
		t.Fatal(err)
	}
	sm, err := shadow.New(heapBase, heapSize)
	if err != nil {
		t.Fatal(err)
	}
	root := cap.MustRoot(0, 1<<48)
	heap, err := root.SetBoundsExact(heapBase, heapSize)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mem: m, shadow: sm, heap: heap}
}

// plant stores a capability to objAddr (bounded to [objAddr, objAddr+64)) at
// memory location at.
func (f *fixture) plant(t *testing.T, at, objAddr uint64) cap.Capability {
	t.Helper()
	obj, err := f.heap.SetBoundsExact(objAddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.mem.RawStoreCap(at, obj); err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestSweepRevokesOnlyPaintedTargets(t *testing.T) {
	f := newFixture(t)
	freed := heapBase + 0x1000
	live := heapBase + 0x2000
	f.plant(t, heapBase+0x100, freed)
	f.plant(t, heapBase+0x200, live)
	if err := f.shadow.Paint(freed, 64); err != nil {
		t.Fatal(err)
	}

	s := New(f.mem, f.shadow, Config{})
	stats, err := s.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CapsFound != 2 || stats.CapsRevoked != 1 {
		t.Fatalf("found=%d revoked=%d, want 2/1", stats.CapsFound, stats.CapsRevoked)
	}
	if tag, _ := f.mem.Tag(heapBase + 0x100); tag {
		t.Error("dangling capability survived the sweep")
	}
	if tag, _ := f.mem.Tag(heapBase + 0x200); !tag {
		t.Error("live capability was wrongly revoked")
	}
	// Revocation clears only the tag; the word's data is intact.
	c, _ := f.mem.RawLoadCap(heapBase + 0x100)
	if c.Base() != freed {
		t.Error("revocation corrupted capability data")
	}
}

func TestSweepRevokesWanderedPointerByBase(t *testing.T) {
	// A pointer whose address has moved within (or just past) the object
	// is still attributed to the allocation via its base (§4.1).
	f := newFixture(t)
	freed := heapBase + 0x1000
	obj, _ := f.heap.SetBoundsExact(freed, 64)
	wandered := obj.SetAddr(freed + 48)
	if err := f.mem.RawStoreCap(heapBase+0x300, wandered); err != nil {
		t.Fatal(err)
	}
	if err := f.shadow.Paint(freed, 64); err != nil {
		t.Fatal(err)
	}
	stats, err := New(f.mem, f.shadow, Config{}).Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CapsRevoked != 1 {
		t.Errorf("CapsRevoked = %d, want 1", stats.CapsRevoked)
	}
}

func TestSweepRegisterFile(t *testing.T) {
	f := newFixture(t)
	freed := heapBase + 0x1000
	obj, _ := f.heap.SetBoundsExact(freed, 64)
	liveObj, _ := f.heap.SetBoundsExact(heapBase+0x2000, 64)
	regs := []cap.Capability{obj, liveObj, cap.Null}
	if err := f.shadow.Paint(freed, 64); err != nil {
		t.Fatal(err)
	}
	stats, err := New(f.mem, f.shadow, Config{}).Sweep(regs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RegsScanned != 3 || stats.RegsRevoked != 1 {
		t.Fatalf("regs scanned=%d revoked=%d", stats.RegsScanned, stats.RegsRevoked)
	}
	if regs[0].Tag() {
		t.Error("register holding dangling capability not revoked")
	}
	if !regs[1].Tag() {
		t.Error("register holding live capability wrongly revoked")
	}
}

func TestCapDirtySkipsCleanPages(t *testing.T) {
	f := newFixture(t)
	// Plant capabilities on pages 0 and 5 only.
	f.plant(t, heapBase+0x40, heapBase+0x2000)
	f.plant(t, heapBase+5*mem.PageSize, heapBase+0x2000)

	s := New(f.mem, f.shadow, Config{UseCapDirty: true})
	stats, err := s.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesTotal != 16 {
		t.Errorf("PagesTotal = %d", stats.PagesTotal)
	}
	if stats.PagesSwept != 2 || stats.PagesSkipped != 14 {
		t.Errorf("swept=%d skipped=%d, want 2/14", stats.PagesSwept, stats.PagesSkipped)
	}
	if stats.PageRuns != 2 {
		t.Errorf("PageRuns = %d, want 2", stats.PageRuns)
	}
	// Full sweep reads every line of both pages.
	if stats.BytesRead != 2*mem.PageSize {
		t.Errorf("BytesRead = %d, want %d", stats.BytesRead, 2*mem.PageSize)
	}
}

func TestCLoadTagsSkipsEmptyLines(t *testing.T) {
	f := newFixture(t)
	f.plant(t, heapBase+0x40, heapBase+0x2000)   // line 1 of page 0
	f.plant(t, heapBase+0x1000, heapBase+0x2000) // line 0 of page 1

	s := New(f.mem, f.shadow, Config{UseCapDirty: true, UseCLoadTags: true})
	stats, err := s.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LinesSwept != 2 {
		t.Errorf("LinesSwept = %d, want 2", stats.LinesSwept)
	}
	wantSkipped := uint64(2*mem.LinesPerPage - 2)
	if stats.LinesSkipped != wantSkipped {
		t.Errorf("LinesSkipped = %d, want %d", stats.LinesSkipped, wantSkipped)
	}
	if stats.TagProbes != 2*mem.LinesPerPage {
		t.Errorf("TagProbes = %d, want %d", stats.TagProbes, 2*mem.LinesPerPage)
	}
	if stats.BytesRead != 2*mem.LineSize {
		t.Errorf("BytesRead = %d, want %d", stats.BytesRead, 2*mem.LineSize)
	}
}

func TestLaunderRecleansPages(t *testing.T) {
	f := newFixture(t)
	// Page 0 gets a capability which is then revoked; page 1 keeps one.
	f.plant(t, heapBase+0x40, heapBase+0x1000)
	f.plant(t, heapBase+mem.PageSize, heapBase+0x2000)
	if err := f.shadow.Paint(heapBase+0x1000, 64); err != nil {
		t.Fatal(err)
	}
	s := New(f.mem, f.shadow, Config{UseCapDirty: true, Launder: true})
	stats, err := s.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesLaunder != 1 {
		t.Errorf("PagesLaunder = %d, want 1", stats.PagesLaunder)
	}
	// Next CapDirty sweep must skip the laundered page.
	stats2, err := s.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.PagesSwept != 1 {
		t.Errorf("after launder PagesSwept = %d, want 1", stats2.PagesSwept)
	}
}

func TestVectorKernelWritesAllLines(t *testing.T) {
	f := newFixture(t)
	f.plant(t, heapBase+0x40, heapBase+0x1000)
	s := New(f.mem, f.shadow, Config{Kernel: sim.KernelVector})
	stats, err := s.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesWritten != stats.LinesSwept*mem.LineSize {
		t.Errorf("vector BytesWritten = %d, want %d", stats.BytesWritten, stats.LinesSwept*mem.LineSize)
	}
}

// TestParallelSweepMatchesSerial checks that the priced sweep width leaves
// the sweep's work unchanged: a 1-wide and a 4-wide sweep of the same heap
// find and revoke the same capabilities and leave the same tags.
func TestParallelSweepMatchesSerial(t *testing.T) {
	build := func() (*fixture, []uint64) {
		f := &fixture{}
		m := mem.New()
		if err := m.Map(heapBase, heapSize); err != nil {
			t.Fatal(err)
		}
		sm, _ := shadow.New(heapBase, heapSize)
		root := cap.MustRoot(0, 1<<48)
		heap, _ := root.SetBoundsExact(heapBase, heapSize)
		f.mem, f.shadow, f.heap = m, sm, heap
		r := rand.New(rand.NewSource(42))
		var capLocs []uint64
		for i := 0; i < 300; i++ {
			at := heapBase + uint64(r.Intn(int(heapSize/16)))*16
			objAddr := heapBase + uint64(r.Intn(int(heapSize/64)))*64
			obj, err := heap.SetBoundsExact(objAddr, 64)
			if err != nil {
				continue
			}
			if err := m.RawStoreCap(at, obj); err != nil {
				t.Fatal(err)
			}
			capLocs = append(capLocs, at)
		}
		for i := 0; i < 40; i++ {
			off := uint64(r.Intn(int(heapSize/64))) * 64
			if err := sm.Paint(heapBase+off, 64); err != nil {
				t.Fatal(err)
			}
		}
		return f, capLocs
	}

	serial, locs := build()
	parallel, _ := build()
	s1, err := New(serial.mem, serial.shadow, Config{Shards: 1}).Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := New(parallel.mem, parallel.shadow, Config{Shards: 4}).Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.CapsRevoked != s4.CapsRevoked || s1.CapsFound != s4.CapsFound {
		t.Fatalf("serial %d/%d vs parallel %d/%d", s1.CapsFound, s1.CapsRevoked, s4.CapsFound, s4.CapsRevoked)
	}
	for _, at := range locs {
		t1, _ := serial.mem.Tag(at)
		t2, _ := parallel.mem.Tag(at)
		if t1 != t2 {
			t.Fatalf("tag divergence at %#x: serial=%v parallel=%v", at, t1, t2)
		}
	}
}

func TestQuickSweepExactness(t *testing.T) {
	// The sweep must revoke exactly the capabilities whose base granule
	// is painted: no false negatives (missed dangling pointers = security
	// hole) and no false positives (revoked live pointers = broken
	// program).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := mem.New()
		if err := m.Map(heapBase, heapSize); err != nil {
			return false
		}
		sm, _ := shadow.New(heapBase, heapSize)
		root := cap.MustRoot(0, 1<<48)
		heap, _ := root.SetBoundsExact(heapBase, heapSize)

		type planted struct {
			at   uint64
			base uint64
		}
		var caps []planted
		used := map[uint64]bool{}
		for i := 0; i < 64; i++ {
			at := heapBase + uint64(r.Intn(int(heapSize/16)))*16
			if used[at] {
				continue
			}
			used[at] = true
			objAddr := heapBase + uint64(r.Intn(int(heapSize/64)))*64
			obj, err := heap.SetBoundsExact(objAddr, 64)
			if err != nil {
				return false
			}
			if err := m.RawStoreCap(at, obj); err != nil {
				return false
			}
			caps = append(caps, planted{at, objAddr})
		}
		painted := map[uint64]bool{}
		for i := 0; i < 16; i++ {
			off := uint64(r.Intn(int(heapSize/64))) * 64
			if err := sm.Paint(heapBase+off, 64); err != nil {
				return false
			}
			painted[heapBase+off] = true
		}
		cfg := Config{
			UseCapDirty:  r.Intn(2) == 0,
			UseCLoadTags: r.Intn(2) == 0,
			Shards:       1 + r.Intn(4),
		}
		if _, err := New(m, sm, cfg).Sweep(nil); err != nil {
			return false
		}
		for _, p := range caps {
			tag, _ := m.Tag(p.at)
			if painted[p.base] == tag {
				t.Logf("at %#x base %#x painted=%v tag=%v cfg=%+v",
					p.at, p.base, painted[p.base], tag, cfg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSweepCountsRunsAndTagWindows checks the counts one walk of the page
// list makes: PageRuns, the maximal runs of contiguous swept pages, and the
// tag-line fills a CLoadTags sweep charges, one per 8 KiB coverage window
// holding a swept page. Each case plants a capability on the listed pages,
// so a CapDirty sweep walks exactly them, holes included.
func TestSweepCountsRunsAndTagWindows(t *testing.T) {
	cases := []struct {
		pages         []uint64 // page indices from heapBase
		runs, windows uint64
	}{
		{nil, 0, 0},
		{[]uint64{0}, 1, 1},
		{[]uint64{0, 1}, 1, 1},
		{[]uint64{1, 2}, 1, 2},
		{[]uint64{0, 2}, 2, 2},
		{[]uint64{0, 1, 3, 4, 10}, 3, 4},
		{[]uint64{2, 3, 5, 6, 7, 15}, 3, 4},
	}
	for _, c := range cases {
		f := newFixture(t)
		for _, p := range c.pages {
			f.plant(t, heapBase+p*mem.PageSize+0x40, heapBase)
		}
		h := mem.NewX86Hierarchy()
		st, err := New(f.mem, f.shadow, Config{UseCapDirty: true, UseCLoadTags: true, Hierarchy: h}).Sweep(nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.PagesSwept != uint64(len(c.pages)) {
			t.Fatalf("pages %v: swept %d pages", c.pages, st.PagesSwept)
		}
		if st.PageRuns != c.runs {
			t.Errorf("pages %v: PageRuns = %d, want %d", c.pages, st.PageRuns, c.runs)
		}
		if fills := st.Traffic.TagDRAMReads / mem.LineSize; fills != c.windows {
			t.Errorf("pages %v: %d tag-line fills, want %d", c.pages, fills, c.windows)
		}
		if st.TagProbes != uint64(len(c.pages))*mem.LinesPerPage {
			t.Errorf("pages %v: %d tag probes, want %d", c.pages, st.TagProbes, uint64(len(c.pages))*mem.LinesPerPage)
		}
	}
}
