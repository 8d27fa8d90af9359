package mem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cap"
)

func buildSnapshotFixture(t *testing.T) *Memory {
	t.Helper()
	m := New()
	if err := m.Map(heapBase, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	root := cap.MustRoot(0, 1<<48)
	heap, _ := root.SetBoundsExact(heapBase, 4*PageSize)
	obj, _ := heap.SetBoundsExact(heapBase+0x200, 64)
	if err := m.StoreCap(heap, heapBase+0x40, obj); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreWord(heap, heapBase+PageSize+8, 0xABCD); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCapStoreInhibit(heapBase+2*PageSize, true); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := buildSnapshotFixture(t)
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	// Data, tags and PTE metadata all survive.
	if v, _ := got.RawLoadWord(heapBase + PageSize + 8); v != 0xABCD {
		t.Errorf("data word = %#x", v)
	}
	if tag, _ := got.Tag(heapBase + 0x40); !tag {
		t.Error("tag lost in snapshot")
	}
	c, err := got.RawLoadCap(heapBase + 0x40)
	if err != nil || !c.Tag() || c.Base() != heapBase+0x200 {
		t.Errorf("capability image corrupted: %v, %v", c, err)
	}
	if dirty, _ := got.CapDirty(heapBase); !dirty {
		t.Error("CapDirty lost")
	}
	inhibitErr := got.RawStoreCap(heapBase+2*PageSize, c)
	if inhibitErr == nil {
		t.Error("capability-store-inhibit lost")
	}
	if !got.CheckTagInvariant() {
		t.Error("tag invariant violated after restore")
	}
	// Counters are fresh: sweeping a dump measures the sweep only.
	if got.Stats() != (Stats{}) {
		t.Errorf("restored stats not zero: %+v", got.Stats())
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	a, b := buildSnapshotFixture(t), buildSnapshotFixture(t)
	var ba, bb bytes.Buffer
	if err := a.WriteSnapshot(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSnapshot(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("identical states serialise differently")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
}

// partlyTouchedMemory builds a memory of three mappings, one with a hole
// unmapped from it, in which some pages hold data or capabilities, some took
// only zero stores or a null capability image, and the rest were never
// stored to.
func partlyTouchedMemory(t testing.TB) *Memory {
	t.Helper()
	m := New()
	obj, err := cap.MustRoot(0, 1<<48).SetBoundsExact(heapBase+0x200, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { return m.Map(heapBase, 16*PageSize) },
		func() error { return m.Map(heapBase+32*PageSize, 8*PageSize) },
		func() error { return m.Map(heapBase-4*PageSize, 2*PageSize) },
		func() error { return m.Unmap(heapBase+4*PageSize, 2*PageSize) },
		func() error { return m.RawStoreCap(heapBase+0x40, obj) },
		func() error { return m.RawStoreWord(heapBase+PageSize+8, 0xABCD) },
		func() error { return m.RawStoreWord(heapBase+2*PageSize, 0) },
		func() error { return m.RawStoreCap(heapBase+3*PageSize, cap.Null) },
		func() error { return m.RawStoreCap(heapBase+33*PageSize+0x80, obj) },
		func() error { return m.ClearTag(heapBase + 33*PageSize + 0x80) },
		func() error { return m.SetCapStoreInhibit(heapBase+7*PageSize, true) },
		func() error { _, err := m.LaunderCapDirty(heapBase + 33*PageSize); return err },
		func() error { return m.RawStoreWord(heapBase-3*PageSize+PageSize-8, ^uint64(0)) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestSnapshotBytesOfPartlyTouchedMemory pins the snapshot bytes of a
// memory whose pages are partly untouched to the digest the map-keyed page
// table produced: an untouched page serialises as zero words, exactly as a
// page that was allocated zeroed did.
func TestSnapshotBytesOfPartlyTouchedMemory(t *testing.T) {
	const want = "003550da0f78d66e4f051ad5db5338ecce2e69c1e7f9ce06c6d63294c21de2ea"
	var buf bytes.Buffer
	if err := partlyTouchedMemory(t).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Errorf("snapshot sha256 %x, want %s", sum, want)
	}
}
