package addrmap

import (
	"maps"
	"math/rand"
	"testing"
)

// fuzzKeys is the key set FuzzAddrMap draws from: 0 and 2^64-1, two
// addresses, and the sixteen keys whose hashes are -8 to 7 mod 2^64 (one of
// them is 0). In a table of any size those all start probing at its last
// slot or at slot 0, so inserts and deletes go through one cluster that
// wraps around.
var fuzzKeys = func() []uint64 {
	// inv is fib's inverse mod 2^64, by Newton's iteration.
	inv := uint64(fib)
	for range 6 {
		inv *= 2 - fib*inv
	}
	keys := []uint64{0, ^uint64(0), 0x1000, 0x1010}
	for j := range uint64(16) {
		keys = append(keys, (j-8)*inv)
	}
	return keys
}()

// FuzzAddrMap decodes its input as Put, Get, Delete and Clear calls, two
// bytes each, and checks every result, Len and the ranged entries against a
// Go map after every call.
func FuzzAddrMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 0, 1, 1, 2, 1})
	f.Add([]byte{0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 2, 4, 1, 8, 2, 6, 1, 7, 3, 0, 0, 12})
	f.Add([]byte{0, 19, 0, 3, 0, 11, 0, 12, 0, 13, 2, 19, 1, 11, 2, 12, 1, 13, 0, 10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var m Map
		ref := map[uint64]uint64{}
		for i := 0; i+1 < len(ops); i += 2 {
			key := fuzzKeys[int(ops[i+1])%len(fuzzKeys)]
			switch ops[i] % 4 {
			case 0:
				val := uint64(i) << 32
				m.Put(key, val)
				ref[key] = val
			case 1:
				got, ok := m.Get(key)
				want, wantOK := ref[key]
				if got != want || ok != wantOK {
					t.Fatalf("op %d: Get(%#x) = %#x, %v; want %#x, %v", i/2, key, got, ok, want, wantOK)
				}
			case 2:
				got, ok := m.Delete(key)
				want, wantOK := ref[key]
				delete(ref, key)
				if got != want || ok != wantOK {
					t.Fatalf("op %d: Delete(%#x) = %#x, %v; want %#x, %v", i/2, key, got, ok, want, wantOK)
				}
			case 3:
				m.Clear()
				clear(ref)
			}
			if m.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", i/2, m.Len(), len(ref))
			}
			if got := maps.Collect(m.All()); !maps.Equal(got, ref) {
				t.Fatalf("op %d: ranged %v, want %v", i/2, got, ref)
			}
		}
	})
}

// TestChurnKeepsCapacity deletes a random key and inserts a fresh one 10^6
// times at 4096 live keys: with no tombstones the table never grows past
// the slots 4096 keys need, and every entry survives the backward shifts.
func TestChurnKeepsCapacity(t *testing.T) {
	const live = 4096
	need := minSlots
	for !fits(live, need) {
		need *= 2
	}
	r := rand.New(rand.NewSource(1))
	var m Map
	keys := make([]uint64, live)
	next := uint64(0x10000)
	for i := range keys {
		keys[i] = next
		m.Put(next, ^next)
		next += 16
	}
	for range 1_000_000 {
		i := r.Intn(live)
		if val, ok := m.Delete(keys[i]); !ok || val != ^keys[i] {
			t.Fatalf("Delete(%#x) = %#x, %v; want %#x, true", keys[i], val, ok, ^keys[i])
		}
		keys[i] = next
		m.Put(next, ^next)
		next += 16 * uint64(1+r.Intn(4))
		if len(m.slots) > need {
			t.Fatalf("%d slots at %d live keys, want at most %d", len(m.slots), m.Len(), need)
		}
	}
	if m.Len() != live {
		t.Fatalf("Len = %d, want %d", m.Len(), live)
	}
	for _, k := range keys {
		if val, ok := m.Get(k); !ok || val != ^k {
			t.Fatalf("Get(%#x) = %#x, %v; want %#x, true", k, val, ok, ^k)
		}
	}
}
