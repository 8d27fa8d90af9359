package alloc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cap"
	"repro/internal/mem"
)

// TestAllocatorChoicesGolden is the exact oracle for chunk choice: one
// fixed-seed sequence of mallocs, frees, representably aligned large
// mallocs and Release/FreeRange drains runs on a classic and on a
// typed-reuse allocator, and the SHA-256 of every returned (addr, padded)
// pair plus the final Stats must equal the recorded digest. Any change to
// bin order, fit, split or coalescing moves the digest; a change that only
// makes the allocator faster must not.
func TestAllocatorChoicesGolden(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"classic", Options{}, "37475e84e4ff79065a80e7f42cd36990f5246ead19f4d26c9097ce86fc737eb1"},
		{"typed", Options{TypedReuse: true}, "50d0bf1df51d3c19bf8d73513e887ef275f4b62f682b9943ba46615f8c76ee8d"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := NewWithOptions(mem.New(), heapBase, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := choiceDigest(t, a); got != c.want {
				t.Errorf("choice digest = %s, want %s", got, c.want)
			}
		})
	}
}

// choiceDigest drives the golden sequence through a and returns the hex
// SHA-256 of its choices. The sequence depends only on the seed, never on
// the addresses returned, so both allocators see the same requests.
func choiceDigest(t *testing.T, a *Allocator) string {
	t.Helper()
	r := rand.New(rand.NewSource(0x5eed))
	h := sha256.New()
	var buf []byte
	var live, released []binEntry
	malloc := func(size, mask uint64) {
		addr, padded, err := a.MallocAligned(size, mask)
		if err != nil {
			t.Fatal(err)
		}
		buf = binary.LittleEndian.AppendUint64(buf[:0], addr)
		buf = binary.LittleEndian.AppendUint64(buf, padded)
		h.Write(buf)
		live = append(live, binEntry{addr, padded})
	}
	// take removes and returns a random live allocation.
	take := func() binEntry {
		i := r.Intn(len(live))
		e := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return e
	}
	for i := 0; i < 20000; i++ {
		op := r.Intn(100)
		if len(live) == 0 {
			op = 0
		} else if len(live) > 200 && op < 55 {
			op += 45
		}
		switch {
		case op < 40: // small: the exact bins
			malloc(uint64(r.Intn(513)), ^uint64(0))
		case op < 50: // medium: the geometric bins
			malloc(uint64(512+256*(1+r.Intn(64))), ^uint64(0))
		case op < 54: // page-aligned, leaving head and tail slack
			malloc(uint64(1024*(1+r.Intn(8))), ^uint64(mem.PageSize-1))
		case op < 55: // large: beyond the representable window
			size := uint64(3+r.Intn(6)) << 18
			if r.Intn(16) == 0 {
				size = 8<<20 + 16 // above 8 MiB the alignment exceeds the granule
			}
			size = cap.RepresentableLength(size)
			malloc(size, cap.RepresentableAlignmentMask(size))
		case op < 80:
			if err := a.Free(take().addr); err != nil {
				t.Fatal(err)
			}
		case op < 96:
			e := take()
			if _, err := a.Release(e.addr); err != nil {
				t.Fatal(err)
			}
			released = append(released, e)
		default: // drain the quarantine
			for _, e := range released {
				a.FreeRange(e.addr, e.size)
			}
			released = released[:0]
		}
	}
	fmt.Fprintf(h, "%+v", a.Stats())
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
