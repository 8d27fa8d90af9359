package revoke

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cap"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// buildSeededHeap maps `pages` pages and plants a seeded random mix of
// capabilities, painting a seeded subset of the shadow map, so every call
// with the same seed produces an identical sweep input.
func buildSeededHeap(t testing.TB, seed int64, pages int) *fixture {
	t.Helper()
	size := uint64(pages) * mem.PageSize
	m := mem.New()
	if err := m.Map(heapBase, size); err != nil {
		t.Fatal(err)
	}
	sm, err := shadow.New(heapBase, size)
	if err != nil {
		t.Fatal(err)
	}
	root := cap.MustRoot(0, 1<<48)
	heap, err := root.SetBoundsExact(heapBase, size)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 40*pages; i++ {
		at := heapBase + uint64(r.Intn(int(size/16)))*16
		objAddr := heapBase + uint64(r.Intn(int(size/64)))*64
		obj, err := heap.SetBoundsExact(objAddr, 64)
		if err != nil {
			continue
		}
		if err := m.RawStoreCap(at, obj); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*pages; i++ {
		off := uint64(r.Intn(int(size/64))) * 64
		if err := sm.Paint(heapBase+off, 64); err != nil {
			t.Fatal(err)
		}
	}
	return &fixture{mem: m, shadow: sm, heap: heap}
}

// shardConfigs is the table of sweep configurations the invariance tests
// cover: every work-elimination assist on and off, plus the unconditionally
// storing vector kernel (whose line write-backs are also charged).
var shardConfigs = []struct {
	name string
	cfg  Config
}{
	{"full-sweep", Config{}},
	{"cap-dirty", Config{UseCapDirty: true}},
	{"cload-tags", Config{UseCLoadTags: true}},
	{"both-assists", Config{UseCapDirty: true, UseCLoadTags: true}},
	{"vector-kernel", Config{Kernel: sim.KernelVector, UseCapDirty: true}},
	{"paper-x86", Config{Kernel: sim.KernelVector, UseCapDirty: true, Launder: true}},
}

// TestShardCountInvariance pins Config.Shards to pricing alone: on a
// fixed-seed heap, every Sweep statistic (work-elimination counts, byte
// counts, and the charged DRAM traffic down to per-level hits and misses)
// and every tag the sweep leaves are identical for 1, 4 and 8 shards.
func TestShardCountInvariance(t *testing.T) {
	for _, tc := range shardConfigs {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 42} {
				type outcome struct {
					stats  Stats
					levels []mem.LevelStats
					tags   []uint64
				}
				var want *outcome
				for _, shards := range []int{1, 4, 8} {
					f := buildSeededHeap(t, seed, 48)
					h := mem.NewX86Hierarchy()
					cfg := tc.cfg
					cfg.Shards = shards
					cfg.Hierarchy = h
					stats, err := New(f.mem, f.shadow, cfg).Sweep(nil)
					if err != nil {
						t.Fatal(err)
					}
					got := &outcome{stats: stats, levels: h.Levels(), tags: taggedGranules(t, f.mem)}
					if want == nil {
						if stats.CapsRevoked == 0 {
							t.Fatalf("seed %d: nothing revoked; the tags are unchecked", seed)
						}
						want = got
						continue
					}
					if got.stats != want.stats {
						t.Errorf("seed %d, %d shards: stats diverge\n got %+v\nwant %+v",
							seed, shards, got.stats, want.stats)
					}
					if !slices.Equal(got.levels, want.levels) {
						t.Errorf("seed %d, %d shards: levels diverge: got %+v want %+v",
							seed, shards, got.levels, want.levels)
					}
					if !slices.Equal(got.tags, want.tags) {
						t.Errorf("seed %d, %d shards: %d tags left, want %d",
							seed, shards, len(got.tags), len(want.tags))
					}
				}
			}
		})
	}
}

// TestSerialShardedTrafficEquivalence compares the charged traffic of a
// 1-wide sweep with that of an 8-wide sweep of the identical heap. The
// width only prices the sweep (sim.Machine.SweepTime), so the two must
// agree exactly: every sweep starts cold and walks one ascending page list.
func TestSerialShardedTrafficEquivalence(t *testing.T) {
	for _, tc := range shardConfigs {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shards int) mem.HierarchyStats {
				f := buildSeededHeap(t, 7, 64)
				h := mem.NewX86Hierarchy()
				cfg := tc.cfg
				cfg.Shards = shards
				cfg.Hierarchy = h
				if _, err := New(f.mem, f.shadow, cfg).Sweep(nil); err != nil {
					t.Fatal(err)
				}
				return h.Stats()
			}
			serial, sharded := run(1), run(8)
			if serial.DRAMReadBytes == 0 {
				t.Fatal("serial sweep charged no DRAM reads; the comparison is empty")
			}
			if serial != sharded {
				t.Errorf("serial %+v vs sharded %+v", serial, sharded)
			}
		})
	}
}

// TestSweepsAccumulateTraffic checks the merge across repeated sweeps into
// one long-lived hierarchy (the campaign per-job pattern): counters only
// grow, and the total equals the sum of the per-sweep deltas.
func TestSweepsAccumulateTraffic(t *testing.T) {
	f := buildSeededHeap(t, 3, 32)
	h := mem.NewX86Hierarchy()
	s := New(f.mem, f.shadow, Config{UseCLoadTags: true, Shards: 4, Hierarchy: h})
	var sum mem.HierarchyStats
	for i := 0; i < 3; i++ {
		stats, err := s.Sweep(nil)
		if err != nil {
			t.Fatal(err)
		}
		sum = sum.Merge(stats.Traffic)
	}
	if h.Stats() != sum {
		t.Errorf("hierarchy total %+v != sum of per-sweep deltas %+v", h.Stats(), sum)
	}
}

// TestConcurrentSweepersUnderRace runs several independent sweepers at once
// — the campaign worker-pool shape, where every job owns its memory, shadow
// map and hierarchy — so the race detector sees the sweeps of concurrent
// jobs interleave, and checks that they agree.
func TestConcurrentSweepersUnderRace(t *testing.T) {
	const sweepers = 4
	results := make([]Stats, sweepers)
	var wg sync.WaitGroup
	for i := 0; i < sweepers; i++ {
		f := buildSeededHeap(t, 99, 32)
		s := New(f.mem, f.shadow, Config{
			UseCapDirty:  true,
			UseCLoadTags: true,
			Hierarchy:    mem.NewX86Hierarchy(),
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats, err := s.Sweep(nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = stats
		}(i)
	}
	wg.Wait()
	for i := 1; i < sweepers; i++ {
		if results[i] != results[0] {
			t.Errorf("sweeper %d diverged:\n got %+v\nwant %+v", i, results[i], results[0])
		}
	}
}
