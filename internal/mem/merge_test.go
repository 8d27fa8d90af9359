package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randCacheStats draws bounded random counters (bounded so three-way sums
// cannot overflow and mask an algebra bug).
func randCacheStats(r *rand.Rand) CacheStats {
	return CacheStats{
		Hits:       uint64(r.Int63n(1 << 40)),
		Misses:     uint64(r.Int63n(1 << 40)),
		WriteBacks: uint64(r.Int63n(1 << 40)),
	}
}

// TestCacheStatsMergeAlgebra property-checks the merge monoid the sharded
// sweep relies on: identity (zero value), commutativity and associativity.
// Shard results are folded in shard-index order, but only these laws make
// that order a free choice rather than a correctness requirement.
func TestCacheStatsMergeAlgebra(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randCacheStats(r), randCacheStats(r), randCacheStats(r)
		if a.Merge(CacheStats{}) != a || (CacheStats{}).Merge(a) != a {
			t.Logf("identity violated for %+v", a)
			return false
		}
		if a.Merge(b) != b.Merge(a) {
			t.Logf("commutativity violated for %+v, %+v", a, b)
			return false
		}
		if a.Merge(b).Merge(c) != a.Merge(b.Merge(c)) {
			t.Logf("associativity violated for %+v, %+v, %+v", a, b, c)
			return false
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHierarchyStatsMergeAlgebra checks the same monoid laws for the
// hierarchy-level traffic totals.
func TestHierarchyStatsMergeAlgebra(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		draw := func() HierarchyStats {
			return HierarchyStats{
				DRAMReadBytes:  uint64(r.Int63n(1 << 40)),
				DRAMWriteBytes: uint64(r.Int63n(1 << 40)),
				OffCoreBytes:   uint64(r.Int63n(1 << 40)),
				TagDRAMReads:   uint64(r.Int63n(1 << 40)),
			}
		}
		a, b, c := draw(), draw(), draw()
		return a.Merge(HierarchyStats{}) == a &&
			a.Merge(b) == b.Merge(a) &&
			a.Merge(b).Merge(c) == a.Merge(b.Merge(c))
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestChargeSweepMatchesReference charges a cold streaming sweep in closed
// form and walks the same sweep through AccessTags, Access and WriteBack on
// a cold hierarchy of each geometry, and of one without a tag cache: three
// 8 KiB windows probed line by line, every other line read, every fifth
// read stored back.
func TestChargeSweepMatchesReference(t *testing.T) {
	noTagCache := func() *Hierarchy {
		h := NewCHERIHierarchy()
		h.TagCache = nil
		return h
	}
	for name, mk := range map[string]func() *Hierarchy{
		"x86": NewX86Hierarchy, "cheri": NewCHERIHierarchy, "no-tag-cache": noTagCache,
	} {
		ref, closed := mk(), mk()
		var lines, stores, probes uint64
		for addr := uint64(0); addr < 3*TagLineCoverage; addr += LineSize {
			ref.AccessTags(addr)
			probes++
			if addr/LineSize%2 == 0 {
				continue
			}
			ref.Access(addr, false)
			lines++
			if lines%5 == 0 {
				ref.WriteBack()
				stores++
			}
		}
		d := closed.ChargeSweep(lines, stores, probes, 3)
		if d != ref.Stats() || closed.Stats() != ref.Stats() {
			t.Errorf("%s: closed form %+v (delta %+v), reference %+v",
				name, closed.Stats(), d, ref.Stats())
		}
		if got, want := closed.Levels(), ref.Levels(); !slices.Equal(got, want) {
			t.Errorf("%s levels: closed form %+v, reference %+v", name, got, want)
		}
	}
}

func TestHierarchyWriteBack(t *testing.T) {
	h := NewX86Hierarchy()
	h.WriteBack()
	h.WriteBack()
	want := HierarchyStats{DRAMWriteBytes: 2 * LineSize, OffCoreBytes: 2 * LineSize}
	if h.Stats() != want {
		t.Errorf("stats after two write-backs: %+v, want %+v", h.Stats(), want)
	}
}
