package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/cap"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/sim"
)

// neverDrain never triggers a sweep, for tests that call Revoke at fixed
// points.
var neverDrain = quarantine.Policy{MinBytes: math.MaxUint64}

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMallocReturnsBoundedCapability(t *testing.T) {
	s := newSystem(t, Config{})
	c, err := s.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Tag() {
		t.Fatal("allocation capability untagged")
	}
	if c.Len() != 112 { // 100 rounded to 16-byte granule
		t.Errorf("Len = %d, want 112", c.Len())
	}
	if c.Addr() != c.Base() {
		t.Errorf("capability cursor %#x != base %#x", c.Addr(), c.Base())
	}
	if !c.Perms().Has(cap.PermData) {
		t.Errorf("perms %v lack data permissions", c.Perms())
	}
	if c.Perms().Has(cap.PermExecute) {
		t.Error("heap capability must not be executable")
	}
	// The memory behind it is usable.
	if err := s.Mem().StoreWord(c, c.Base(), 42); err != nil {
		t.Fatalf("store through fresh allocation: %v", err)
	}
}

func TestMallocRejectsSizesBeyondHeapCap(t *testing.T) {
	// Sizes above the heap cap fail as out of memory and record nothing.
	// Padding the first two to the granule would wrap to a 16-byte
	// allocation.
	for _, size := range []uint64{math.MaxUint64, math.MaxUint64 - 7, 1 << 63} {
		s := newSystem(t, Config{})
		c, err := s.Malloc(size)
		if !errors.Is(err, alloc.ErrOOM) {
			t.Errorf("Malloc(%#x) = %v, %v; want alloc.ErrOOM", size, c, err)
		}
		if got := s.Stats().Mallocs; got != 0 {
			t.Errorf("Malloc(%#x) counted %d mallocs", size, got)
		}
		if got := s.LiveBytes(); got != 0 {
			t.Errorf("Malloc(%#x) left %d live bytes", size, got)
		}
	}
}

func TestMallocLargeIsRepresentable(t *testing.T) {
	s := newSystem(t, Config{})
	// Large enough to require representability padding and alignment.
	c, err := s.Malloc(1<<21 + 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() < 1<<21+7 {
		t.Errorf("padded length %d below request", c.Len())
	}
	mask := cap.RepresentableAlignmentMask(c.Len())
	if c.Base()&^mask != 0 {
		t.Errorf("base %#x not aligned for length %d", c.Base(), c.Len())
	}
}

func TestFreeQuarantinesInsteadOfRecycling(t *testing.T) {
	s := newSystem(t, Config{Policy: neverDrain})
	c, _ := s.Malloc(64)
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	if s.QuarantineBytes() != 64 {
		t.Errorf("QuarantineBytes = %d", s.QuarantineBytes())
	}
	// The address must NOT be reused before a sweep.
	c2, _ := s.Malloc(64)
	if c2.Base() == c.Base() {
		t.Fatal("quarantined address reused before revocation")
	}
}

func TestFreeValidation(t *testing.T) {
	s := newSystem(t, Config{Policy: neverDrain})
	c, _ := s.Malloc(64)
	if err := s.Free(c.ClearTag()); !errors.Is(err, ErrInvalidFree) {
		t.Errorf("free of untagged capability: got %v", err)
	}
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	// Double free: the allocation is gone from the live set.
	if err := s.Free(c); !errors.Is(err, ErrInvalidFree) {
		t.Errorf("double free: got %v", err)
	}
	// Free through an interior pointer still works: the base identifies
	// the allocation even when the cursor has moved (§4.1).
	d, _ := s.Malloc(64)
	if err := s.Free(d.Inc(16)); err != nil {
		t.Errorf("free via moved cursor: %v", err)
	}
}

func TestUseAfterFreeTrapsAfterRevocation(t *testing.T) {
	s := newSystem(t, Config{Policy: neverDrain})
	c, _ := s.Malloc(64)
	s.AddRoot(&c)
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	// Before the sweep the stale capability still works (CHERIvoke
	// prevents use-after-REALLOCATION, not strict use-after-free, §3.7) —
	// but the memory has not been reallocated, so this is harmless.
	if err := s.Mem().StoreWord(c, c.Base(), 1); err != nil {
		t.Fatalf("pre-sweep access should not trap: %v", err)
	}
	rep, err := s.Revoke()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sweep.RegsRevoked != 1 {
		t.Errorf("RegsRevoked = %d, want 1", rep.Sweep.RegsRevoked)
	}
	if c.Tag() {
		t.Fatal("root capability not revoked")
	}
	if err := s.Mem().StoreWord(c, c.Base(), 2); !errors.Is(err, cap.ErrTagCleared) {
		t.Fatalf("post-sweep access: got %v, want ErrTagCleared", err)
	}
}

func TestRevocationSweepsHeapCopies(t *testing.T) {
	// A dangling pointer stored INSIDE the heap must also be revoked.
	s := newSystem(t, Config{Policy: neverDrain})
	victim, _ := s.Malloc(64)
	holder, _ := s.Malloc(64)
	s.AddRoot(&holder)
	if err := s.Mem().StoreCap(holder, holder.Base(), victim); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Revoke(); err != nil {
		t.Fatal(err)
	}
	loaded, err := s.Mem().LoadCap(holder, holder.Base())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Tag() {
		t.Fatal("heap-stored dangling capability survived revocation")
	}
}

func TestRevokeRecyclesQuarantine(t *testing.T) {
	s := newSystem(t, Config{Policy: neverDrain})
	c, _ := s.Malloc(64)
	base := c.Base()
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Revoke()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksRecycled != 1 || rep.BytesRecycled != 64 {
		t.Errorf("recycled %d chunks / %d bytes", rep.ChunksRecycled, rep.BytesRecycled)
	}
	if s.QuarantineBytes() != 0 {
		t.Error("quarantine not drained")
	}
	if s.Shadow().PaintedGranules() != 0 {
		t.Error("shadow map not cleared after sweep")
	}
	// Now the address may be reused — safely, since nothing references it.
	c2, _ := s.Malloc(64)
	if c2.Base() != base {
		t.Errorf("recycled chunk not reused: got %#x, want %#x", c2.Base(), base)
	}
}

func TestAutoRevokeAtPolicyFraction(t *testing.T) {
	s := newSystem(t, Config{
		Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 1},
	})
	// Allocate a 64 KiB live block, then free blocks until quarantine
	// crosses 25% of the live heap.
	live, _ := s.Malloc(64 << 10)
	_ = live
	var frees int
	for s.Stats().Sweeps == 0 && frees < 100 {
		c, err := s.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Free(c); err != nil {
			t.Fatal(err)
		}
		frees++
	}
	if s.Stats().Sweeps == 0 {
		t.Fatal("no automatic sweep after many frees")
	}
	if frees < 2 {
		t.Errorf("sweep fired after %d frees; policy should batch", frees)
	}
}

func TestDirectFreeModeRecyclesImmediately(t *testing.T) {
	s := newSystem(t, Config{DirectFree: true})
	c, _ := s.Malloc(64)
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	c2, _ := s.Malloc(64)
	if c2.Base() != c.Base() {
		t.Error("direct mode must reuse immediately")
	}
	if s.Stats().Sweeps != 0 {
		t.Error("direct mode must never sweep")
	}
}

func TestStatsDecomposition(t *testing.T) {
	s := newSystem(t, Config{Policy: neverDrain})
	for i := 0; i < 50; i++ {
		c, err := s.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Free(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Revoke(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Mallocs != 50 || st.Frees != 50 || st.Sweeps != 1 {
		t.Errorf("counts: %+v", st)
	}
	if st.SweepSeconds <= 0 || st.ShadowSeconds <= 0 || st.QuarantineSeconds <= 0 {
		t.Errorf("time decomposition not populated: %+v", st)
	}
	if st.BaselineFreeCost <= 0 {
		t.Error("baseline free cost not tracked")
	}
	// Adjacent same-size frees coalesce: the drain must have recycled
	// far fewer chunks than there were frees.
	if q := s.Quarantine().Stats(); q.DrainedOut >= q.Inserts {
		t.Errorf("no batching: %d chunks from %d inserts", q.DrainedOut, q.Inserts)
	}
}

func TestMemoryFootprintIncludesShadow(t *testing.T) {
	s := newSystem(t, Config{})
	if _, err := s.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	if s.MemoryFootprint() <= s.Allocator().MappedBytes() {
		t.Error("footprint must include the shadow map")
	}
}

func TestRevokeWithHardwareAssists(t *testing.T) {
	for _, cfg := range []revoke.Config{
		{},
		{UseCapDirty: true},
		{UseCapDirty: true, UseCLoadTags: true},
		{UseCapDirty: true, UseCLoadTags: true, Shards: 4},
		{Kernel: sim.KernelVector, UseCapDirty: true},
	} {
		s := newSystem(t, Config{Policy: neverDrain, Revoke: cfg})
		victim, _ := s.Malloc(64)
		holder, _ := s.Malloc(64)
		s.AddRoot(&holder)
		if err := s.Mem().StoreCap(holder, holder.Base(), victim); err != nil {
			t.Fatal(err)
		}
		if err := s.Free(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Revoke(); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		loaded, _ := s.Mem().LoadCap(holder, holder.Base())
		if loaded.Tag() {
			t.Errorf("cfg %+v: dangling capability survived", cfg)
		}
	}
}

func TestQuickNoUseAfterReallocation(t *testing.T) {
	// The paper's core guarantee (§3.7): an object can only be accessed
	// through capabilities derived from its LATEST allocation. Random
	// malloc/free/revoke interleavings must never leave a pre-free
	// capability usable over reallocated memory.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, err := New(Config{
			Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 1024},
			Revoke: revoke.Config{UseCapDirty: r.Intn(2) == 0, UseCLoadTags: r.Intn(2) == 0},
		})
		if err != nil {
			return false
		}
		type obj struct {
			c     cap.Capability
			freed bool
		}
		var objs []*obj
		for i := 0; i < 300; i++ {
			switch {
			case len(objs) < 5 || r.Intn(3) > 0:
				c, err := s.Malloc(uint64(16 + r.Intn(512)))
				if err != nil {
					return false
				}
				o := &obj{c: c}
				s.AddRoot(&o.c)
				objs = append(objs, o)
			default:
				o := objs[r.Intn(len(objs))]
				if o.freed {
					continue
				}
				if err := s.Free(o.c); err != nil {
					return false
				}
				o.freed = true
			}
		}
		if _, err := s.Revoke(); err != nil {
			return false
		}
		// Every freed object's capability must now be revoked; every
		// live object's capability must still work.
		for _, o := range objs {
			if o.freed && o.c.Tag() {
				t.Logf("freed object capability survived: %v", o.c)
				return false
			}
			if !o.freed {
				if err := s.Mem().StoreWord(o.c, o.c.Base(), 7); err != nil {
					t.Logf("live object unusable: %v", err)
					return false
				}
			}
		}
		return s.Mem().CheckTagInvariant() && s.Allocator().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
