package mem

import (
	"math/rand"
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
