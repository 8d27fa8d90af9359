package quarantine

import (
	"slices"
	"testing"
)

// fuzzBase is the first address of FuzzQuarantineOps's region,
// fuzzMaxGranules caps the region it grows to, and fuzzMaxOps caps the calls
// decoded from one input, which keeps each exec, and the minimisation of an
// interesting input, short.
const (
	fuzzBase        = uint64(0x10000)
	fuzzMaxGranules = 512
	fuzzMaxOps      = 128
)

// refBuffer is the brute-force reference: one flag per granule of the
// covered region. Every insert coalesces with both neighbours, so the chunks
// are exactly the maximal runs of quarantined granules.
type refBuffer struct {
	q     []bool
	stats Stats
}

// runs returns the reference's chunks in address order.
func (r *refBuffer) runs() []Chunk {
	var out []Chunk
	for g := 0; g < len(r.q); g++ {
		if !r.q[g] {
			continue
		}
		start := g
		for g < len(r.q) && r.q[g] {
			g++
		}
		out = append(out, Chunk{Addr: fuzzBase + uint64(start)*granule, Size: uint64(g-start) * granule})
	}
	return out
}

// span classifies the granule range [g, g+n): whether it lies in the
// region, whether it starts where a chunk starts or ends where one ends,
// and whether it overlaps any quarantined granule.
func (r *refBuffer) span(g, n int) (covered, clash, overlap bool) {
	if g < 0 || n <= 0 || g+n > len(r.q) {
		return false, false, false
	}
	e := g + n
	clash = r.q[g] && (g == 0 || !r.q[g-1]) || r.q[e-1] && (e == len(r.q) || !r.q[e])
	return true, clash, slices.Contains(r.q[g:e], true)
}

// FuzzQuarantineOps decodes its input as Insert, Drain and Grow calls,
// three bytes each, and after every call checks Chunks, Len, Bytes and
// Stats against refBuffer. Inserts are of five kinds: disjoint granule
// ranges, exact start and end clashes with a chunk, ranges outside the
// region, and unaligned or empty ranges. A range that overlaps a chunk
// without such a clash leaves the buffer unspecified, so it is skipped.
func FuzzQuarantineOps(f *testing.F) {
	f.Add([]byte{0, 10, 3, 0, 30, 3, 0, 20, 6, 4, 0, 0})
	f.Add([]byte{5, 63, 2, 0, 0, 79, 0, 200, 79, 1, 0, 0, 1, 0, 1, 0, 120, 40, 4, 0, 0})
	f.Add([]byte{2, 1, 0, 2, 2, 1, 2, 3, 3, 3, 0, 5, 3, 7, 0, 5, 9, 2, 0, 255, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		b, err := New(fuzzBase, 64*granule)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refBuffer{q: make([]bool, 64)}
		for i := 0; i+2 < min(len(ops), 3*fuzzMaxOps); i += 3 {
			x, y := int(ops[i+1]), int(ops[i+2])
			limit := fuzzBase + uint64(len(ref.q))*granule
			switch ops[i] % 6 {
			case 0: // a range anywhere in (or just past the end of) the region
				g, n := x*len(ref.q)/256, 1+y%80
				covered, clash, overlap := ref.span(g, n)
				if covered && !clash && overlap {
					continue
				}
				err := b.Insert(fuzzBase+uint64(g)*granule, uint64(n)*granule)
				if !covered || clash {
					if err == nil {
						t.Fatalf("op %d: Insert of granules [%d, +%d) accepted (covered %v, clash %v)", i/3, g, n, covered, clash)
					}
					break
				}
				if err != nil {
					t.Fatalf("op %d: Insert of granules [%d, +%d): %v", i/3, g, n, err)
				}
				ref.stats.Inserts++
				if g > 0 && ref.q[g-1] {
					ref.stats.Coalesces++
				}
				if g+n < len(ref.q) && ref.q[g+n] {
					ref.stats.Coalesces++
				}
				for j := g; j < g+n; j++ {
					ref.q[j] = true
				}
			case 1: // starts where a chunk starts, or ends where one ends
				runs := ref.runs()
				if len(runs) == 0 {
					continue
				}
				c, size := runs[x%len(runs)], uint64(1+y/2%80)*granule
				addr := c.Addr
				if y%2 == 1 {
					addr = max(fuzzBase, c.End()-size)
					size = c.End() - addr
				}
				if b.Insert(addr, size) == nil {
					t.Fatalf("op %d: clashing Insert(%#x, %#x) with chunk %+v accepted", i/3, addr, size, c)
				}
			case 2: // outside the region: below it, across its end, or wrapping
				addr, size := fuzzBase-uint64(1+x%4)*granule, uint64(1+y%8)*granule
				switch y % 3 {
				case 1:
					addr = limit - uint64(x%4)*granule
					size = uint64(x%4+1+y%4) * granule
				case 2:
					addr = ^uint64(0) &^ (granule - 1)
					size = uint64(1+x) * granule
				}
				if b.Insert(addr, size) == nil {
					t.Fatalf("op %d: Insert(%#x, %#x) outside [%#x, %#x) accepted", i/3, addr, size, fuzzBase, limit)
				}
			case 3: // unaligned or empty
				addr := fuzzBase + uint64(x*len(ref.q)/256)*granule
				size := uint64(1+y%8) * granule
				switch y % 3 {
				case 0:
					addr += uint64(1 + x%15)
				case 1:
					size += uint64(1 + x%15)
				case 2:
					size = 0
				}
				if b.Insert(addr, size) == nil {
					t.Fatalf("op %d: unaligned or empty Insert(%#x, %#x) accepted", i/3, addr, size)
				}
			case 4:
				want := ref.runs()
				if got := b.Drain(); !slices.Equal(got, want) {
					t.Fatalf("op %d: Drain = %+v, want %+v", i/3, got, want)
				}
				clear(ref.q)
				ref.stats.Drains++
				ref.stats.DrainedOut += uint64(len(want))
			case 5: // grow, grow to a smaller size, or grow unaligned
				switch y % 4 {
				case 0:
					if b.Grow(uint64(len(ref.q))*granule+uint64(1+x%15)) == nil {
						t.Fatalf("op %d: unaligned Grow accepted", i/3)
					}
				case 1:
					if err := b.Grow(uint64(x%len(ref.q)) * granule); err != nil {
						t.Fatalf("op %d: Grow to a smaller size: %v", i/3, err)
					}
				default:
					n := min(len(ref.q)+1+x, fuzzMaxGranules)
					if err := b.Grow(uint64(n) * granule); err != nil {
						t.Fatalf("op %d: Grow(%d granules): %v", i/3, n, err)
					}
					ref.q = append(ref.q, make([]bool, n-len(ref.q))...)
				}
			}
			checkAgainst(t, i/3, b, ref)
		}
	})
}

// checkAgainst compares b's observable state with the reference's.
func checkAgainst(t *testing.T, op int, b *Buffer, ref *refBuffer) {
	t.Helper()
	want := ref.runs()
	if got := b.Chunks(); !slices.Equal(got, want) {
		t.Fatalf("op %d: Chunks = %+v, want %+v", op, got, want)
	}
	if b.Len() != len(want) {
		t.Fatalf("op %d: Len = %d, want %d", op, b.Len(), len(want))
	}
	var bytes uint64
	for _, c := range want {
		bytes += c.Size
	}
	if b.Bytes() != bytes {
		t.Fatalf("op %d: Bytes = %d, want %d", op, b.Bytes(), bytes)
	}
	if b.Stats() != ref.stats {
		t.Fatalf("op %d: Stats = %+v, want %+v", op, b.Stats(), ref.stats)
	}
}
