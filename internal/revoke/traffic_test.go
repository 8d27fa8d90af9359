package revoke

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cap"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// TestHierarchyTrafficAccounting verifies the Figure 10 plumbing: a sweep
// with a cache hierarchy attached generates DRAM and off-core traffic
// proportional to the lines it touches, and CLoadTags probes route through
// the tag cache instead of the data path.
func TestHierarchyTrafficAccounting(t *testing.T) {
	f := newFixture(t)
	// Populate every line of two pages so the sweep streams them.
	for l := uint64(0); l < 2*mem.LinesPerPage; l++ {
		f.plant(t, heapBase+l*mem.LineSize, heapBase+0x2000)
	}

	h := mem.NewX86Hierarchy()
	s := New(f.mem, f.shadow, Config{UseCapDirty: true, Hierarchy: h})
	stats, err := s.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	traffic := h.Stats()
	if traffic.DRAMReadBytes == 0 || traffic.OffCoreBytes == 0 {
		t.Fatalf("no traffic recorded: %+v", traffic)
	}
	// A cold sweep misses on every distinct line it reads.
	if traffic.DRAMReadBytes < stats.BytesRead {
		t.Errorf("DRAM reads %d below swept bytes %d", traffic.DRAMReadBytes, stats.BytesRead)
	}

	// With CLoadTags, tag-cache traffic appears and is far smaller than
	// the data traffic it replaces (one tag line covers 8 KiB of data).
	h2 := mem.NewX86Hierarchy()
	s2 := New(f.mem, f.shadow, Config{UseCapDirty: true, UseCLoadTags: true, Hierarchy: h2})
	if _, err := s2.Sweep(nil); err != nil {
		t.Fatal(err)
	}
	if h2.Stats().TagDRAMReads == 0 {
		t.Error("no tag-table traffic with CLoadTags")
	}
	if h2.Stats().TagDRAMReads >= traffic.DRAMReadBytes {
		t.Errorf("tag traffic %d not smaller than data traffic %d",
			h2.Stats().TagDRAMReads, traffic.DRAMReadBytes)
	}
}

// TestParallelSweepReplaysHierarchy checks that a sweep priced at four
// shards with a hierarchy attached charges its traffic and says so via the
// explicit TrafficReplayed marker, and that the per-sweep Stats.Traffic
// delta matches what landed in the hierarchy.
func TestParallelSweepReplaysHierarchy(t *testing.T) {
	f := newFixture(t)
	f.plant(t, heapBase+0x40, heapBase+0x2000)
	h := mem.NewX86Hierarchy()
	s := New(f.mem, f.shadow, Config{Shards: 4, Hierarchy: h})
	stats, err := s.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TrafficReplayed {
		t.Error("TrafficReplayed marker not set for a sweep with a hierarchy")
	}
	if got := h.Stats(); got.DRAMReadBytes == 0 {
		t.Errorf("sweep left the hierarchy untouched: %+v", got)
	}
	if stats.Traffic != h.Stats() {
		t.Errorf("per-sweep traffic %+v != hierarchy stats %+v (single sweep into a cold hierarchy)",
			stats.Traffic, h.Stats())
	}

	// Without a hierarchy the marker stays clear: traffic was never
	// requested.
	plain, err := New(f.mem, f.shadow, Config{Shards: 4}).Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TrafficReplayed {
		t.Error("TrafficReplayed set without a hierarchy attached")
	}
}

// TestSweepTimeMatchesKernelAcrossConfigs sanity-checks that the priced
// sweep time responds to the work-elimination stats end to end.
func TestSweepTimeMatchesKernelAcrossConfigs(t *testing.T) {
	f := newFixture(t)
	// One capability-bearing line per page on half the pages.
	for p := uint64(0); p < 8; p++ {
		f.plant(t, heapBase+p*mem.PageSize, heapBase+0x2000)
	}
	machine := sim.CHERIFPGA()
	time := func(cfg Config) float64 {
		st, err := New(f.mem, f.shadow, cfg).Sweep(nil)
		if err != nil {
			t.Fatal(err)
		}
		return machine.SweepTime(cfg.Kernel.Costs(), st.Work(1))
	}
	full := time(Config{})
	dirty := time(Config{UseCapDirty: true})
	both := time(Config{UseCapDirty: true, UseCLoadTags: true})
	if !(dirty < full) {
		t.Errorf("CapDirty %.3g not below full %.3g", dirty, full)
	}
	if !(both < dirty) {
		t.Errorf("both %.3g not below CapDirty %.3g (sparse lines)", both, dirty)
	}
}

// gappyHeap maps a seeded subset of 64 pages — gaps, full 8 KiB tag windows
// and half-filled ones — and paints a quarter of a pool of 32 objects.
// plant stores capabilities to pool objects on about half the mapped pages,
// so about a quarter of them are revoked by the next sweep.
type gappyHeap struct {
	*fixture
	mapped, pool []uint64
	r            *rand.Rand
}

func newGappyHeap(t *testing.T, seed int64) *gappyHeap {
	t.Helper()
	const span = 64 * mem.PageSize
	r := rand.New(rand.NewSource(seed))
	m := mem.New()
	sm, err := shadow.New(heapBase, span)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := cap.MustRoot(0, 1<<48).SetBoundsExact(heapBase, span)
	if err != nil {
		t.Fatal(err)
	}
	g := &gappyHeap{fixture: &fixture{mem: m, shadow: sm, heap: heap}, r: r}
	for p := uint64(0); p < span/mem.PageSize; p++ {
		// Pages 0–1 fill a window; 3 and 4 leave 2 and 5 half-filling two.
		if p == 3 || p == 4 || (p > 5 && r.Intn(4) == 0) {
			continue
		}
		base := heapBase + p*mem.PageSize
		if err := m.Map(base, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		g.mapped = append(g.mapped, base)
	}
	for i := 0; i < 32; i++ {
		obj := heapBase + uint64(r.Intn(int(span/64)))*64
		g.pool = append(g.pool, obj)
		if i%4 == 0 {
			if err := sm.Paint(obj, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.plant(t)
	return g
}

func (g *gappyHeap) plant(t *testing.T) {
	t.Helper()
	for _, base := range g.mapped {
		if g.r.Intn(2) == 0 {
			continue
		}
		for n := 1 + g.r.Intn(24); n > 0; n-- {
			at := base + uint64(g.r.Intn(mem.GranulesPerPage))*mem.GranuleSize
			g.fixture.plant(t, at, g.pool[g.r.Intn(len(g.pool))])
		}
	}
}

// coldWalk is the line-by-line reference for the closed-form traffic
// charge: one sweep walked through caches that start cold and never evict.
// A line's first read misses L1D, L2 and the LLC and fills from DRAM (a
// second read would hit L1D); the first probe of an 8 KiB tag window fills
// its tag line and later probes of it hit; each stored line drains one line
// to DRAM.
type coldWalk struct {
	lines, windows map[uint64]bool
	l1, outer, tag mem.CacheStats // outer: L2 and the LLC, which miss together
	traffic        mem.HierarchyStats
}

func (w *coldWalk) read(line uint64) {
	if w.lines[line] {
		w.l1.Hits++
		return
	}
	w.lines[line] = true
	w.l1.Misses++
	w.outer.Misses++
	w.traffic.DRAMReadBytes += mem.LineSize
	w.traffic.OffCoreBytes += mem.LineSize
}

func (w *coldWalk) probe(line uint64) {
	window := line / mem.TagLineCoverage
	if w.windows[window] {
		w.tag.Hits++
		return
	}
	w.windows[window] = true
	w.tag.Misses++
	w.traffic.TagDRAMReads += mem.LineSize
	w.traffic.DRAMReadBytes += mem.LineSize
	w.traffic.OffCoreBytes += mem.LineSize
}

func (w *coldWalk) store() {
	w.traffic.DRAMWriteBytes += mem.LineSize
	w.traffic.OffCoreBytes += mem.LineSize
}

// replayTraffic walks the sweep that cfg is about to make of f through a
// cold walk: a CLoadTags probe per line, a read per line not skipped, and a
// store per line the sweep stores. It returns the per-level counters and
// traffic. Call it before the sweep: the sweep clears the tags it revokes.
func replayTraffic(t *testing.T, f *fixture, cfg Config) ([]mem.LevelStats, mem.HierarchyStats) {
	t.Helper()
	var pages []uint64
	if cfg.UseCapDirty {
		pages = f.mem.AppendCapDirtyPages(nil)
	} else {
		pages = f.mem.AppendAllPages(nil)
	}
	w := coldWalk{lines: map[uint64]bool{}, windows: map[uint64]bool{}}
	for _, base := range pages {
		view, err := f.mem.PageView(base)
		if err != nil {
			t.Fatal(err)
		}
		for l := uint(0); l < mem.LinesPerPage; l++ {
			line := base + uint64(l)*mem.LineSize
			mask, err := f.mem.CLoadTags(line)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.UseCLoadTags {
				w.probe(line)
				if mask == 0 {
					continue
				}
			}
			w.read(line)
			store := cfg.Kernel == sim.KernelVector
			for g := uint(0); g < mem.GranulesPerLine; g++ {
				lo, hi, tag := view.Granule(l*mem.GranulesPerLine + g)
				store = store || tag && f.shadow.Revoked(cap.DecodeBase(lo, hi))
			}
			if store {
				w.store()
			}
		}
	}
	return []mem.LevelStats{
		{Name: "L1D", CacheStats: w.l1},
		{Name: "L2", CacheStats: w.outer},
		{Name: "LLC", CacheStats: w.outer},
		{Name: "Tag$", CacheStats: w.tag},
	}, w.traffic
}

func mergeLevels(sum, add []mem.LevelStats) []mem.LevelStats {
	if sum == nil {
		return add
	}
	for i := range sum {
		sum[i].CacheStats = sum[i].CacheStats.Merge(add[i].CacheStats)
	}
	return sum
}

// TestClosedFormTrafficMatchesReplay pins the closed-form traffic charge
// (mem.Hierarchy.ChargeSweep) to the cold walk: for both hierarchies and
// every assist and kernel, on five seeded gappy heaps, three sweeps into one
// hierarchy leave the same per-level counters and traffic totals as
// replaying them, and each sweep's Stats.Traffic equals its replayed delta.
func TestClosedFormTrafficMatchesReplay(t *testing.T) {
	geometries := []struct {
		name string
		mk   func() *mem.Hierarchy
	}{{"x86", mem.NewX86Hierarchy}, {"cheri", mem.NewCHERIHierarchy}}
	for _, geo := range geometries {
		for _, kernel := range []sim.Kernel{sim.KernelSimple, sim.KernelVector} {
			for assists := 0; assists < 4; assists++ {
				for _, seed := range []int64{1, 2, 3, 4, 7} {
					cfg := Config{
						Kernel:       kernel,
						UseCapDirty:  assists&1 != 0,
						UseCLoadTags: assists&2 != 0,
						Hierarchy:    geo.mk(),
					}
					name := fmt.Sprintf("%s/kernel=%d/capdirty=%v/cloadtags=%v/seed=%d",
						geo.name, kernel, cfg.UseCapDirty, cfg.UseCLoadTags, seed)
					g := newGappyHeap(t, seed)
					s := New(g.mem, g.shadow, cfg)
					var wantLevels []mem.LevelStats
					var want mem.HierarchyStats
					for sweep := 0; sweep < 3; sweep++ {
						levels, traffic := replayTraffic(t, g.fixture, cfg)
						wantLevels, want = mergeLevels(wantLevels, levels), want.Merge(traffic)
						stats, err := s.Sweep(nil)
						if err != nil {
							t.Fatal(err)
						}
						if stats.CapsRevoked == 0 {
							t.Fatalf("%s sweep %d: nothing revoked; the store term is unchecked", name, sweep)
						}
						if stats.Traffic != traffic {
							t.Errorf("%s sweep %d: Stats.Traffic %+v, replay %+v", name, sweep, stats.Traffic, traffic)
						}
						if got := cfg.Hierarchy.Stats(); got != want {
							t.Errorf("%s sweep %d: hierarchy %+v, replay %+v", name, sweep, got, want)
						}
						if got := cfg.Hierarchy.Levels(); !slices.Equal(got, wantLevels) {
							t.Errorf("%s sweep %d: levels %+v, replay %+v", name, sweep, got, wantLevels)
						}
						g.plant(t)
					}
				}
			}
		}
	}
}
