// Package addrmap is a hash table from uint64 to uint64, for the allocator's
// free-chunk index keyed by simulated address: chunk start to size, and
// chunk end to start.
//
// The table uses open addressing with linear probing, Fibonacci
// (multiplicative) hashing and a power-of-two number of slots. Delete shifts
// the rest of its probe cluster back into the hole instead of leaving a
// tombstone, so a table under steady insert/delete churn never fills up with
// dead slots and stays the size its live entries need. Go's built-in map
// counts deleted slots against its load and answers such churn with
// rehashes.
package addrmap

import (
	"iter"
	"math/bits"
)

// Key 0 marks an empty slot, so the entry for key 0 is held beside the
// slots.
type slot struct{ key, val uint64 }

const (
	// fib is 2^64 divided by the golden ratio, truncated (and odd).
	// Multiplying by it spreads keys that differ only in low or middle
	// bits, such as nearby 16-byte-aligned addresses, across the top bits
	// that pick a slot.
	fib = 0x9e3779b97f4a7c15
	// minSlots is the slot count of a table's first allocation.
	minSlots = 8
)

// Map is a hash table from uint64 to uint64. The zero value is an empty map
// ready to use. A Map is not safe for concurrent use.
type Map struct {
	slots   []slot // len is zero or a power of two
	shift   uint   // 64 - log2(len(slots)): a key's home is its hash's top bits
	n       int    // occupied slots
	hasZero bool   // whether key 0 is present
	zeroVal uint64 // the value of key 0
}

// fits reports whether n entries may occupy slots slots. The load stays at
// or below three quarters, where a hit probes 2.5 slots on average and a
// miss 8.5. Doubling at three quarters leaves a table three eighths full,
// so a growing table's 16-byte slots cost 21 to 43 bytes per entry.
func fits(n, slots int) bool { return 4*n <= 3*slots }

// home returns the slot at which key's probe sequence starts.
func (m *Map) home(key uint64) uint64 {
	return (key * fib) >> m.shift
}

// Len returns the number of entries.
func (m *Map) Len() int {
	if m.hasZero {
		return m.n + 1
	}
	return m.n
}

// Get returns the value stored for key and whether it was present.
func (m *Map) Get(key uint64) (uint64, bool) {
	if key == 0 {
		return m.zeroVal, m.hasZero
	}
	if m.n == 0 {
		return 0, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(key); ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case key:
			return m.slots[i].val, true
		case 0:
			return 0, false
		}
	}
}

// Put stores val for key, replacing any previous value.
func (m *Map) Put(key, val uint64) {
	if key == 0 {
		m.hasZero, m.zeroVal = true, val
		return
	}
	if !fits(m.n+1, len(m.slots)) {
		m.resize(max(minSlots, 2*len(m.slots)))
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.key == key {
			s.val = val
			return
		}
		if s.key == 0 {
			*s = slot{key, val}
			m.n++
			return
		}
	}
}

// Delete removes key, returning the value it held and whether it was
// present.
func (m *Map) Delete(key uint64) (uint64, bool) {
	if key == 0 {
		val, ok := m.zeroVal, m.hasZero
		m.hasZero, m.zeroVal = false, 0
		return val, ok
	}
	if m.n == 0 {
		return 0, false
	}
	mask := uint64(len(m.slots) - 1)
	hole := m.home(key)
	for m.slots[hole].key != key {
		if m.slots[hole].key == 0 {
			return 0, false
		}
		hole = (hole + 1) & mask
	}
	val := m.slots[hole].val
	// Walk the rest of the cluster, moving back into the hole each entry
	// whose home lies at or before the hole along its probe sequence: one
	// that is at least as far from its home as from the hole.
	for i := (hole + 1) & mask; m.slots[i].key != 0; i = (i + 1) & mask {
		if (i-m.home(m.slots[i].key))&mask >= (i-hole)&mask {
			m.slots[hole] = m.slots[i]
			hole = i
		}
	}
	m.slots[hole] = slot{}
	m.n--
	return val, true
}

// Clear removes every entry, keeping the slots for reuse.
func (m *Map) Clear() {
	clear(m.slots)
	m.n = 0
	m.hasZero, m.zeroVal = false, 0
}

// All returns an iterator over the entries. Its order is unspecified, and
// the map must not be modified while it runs.
func (m *Map) All() iter.Seq2[uint64, uint64] {
	return func(yield func(key, val uint64) bool) {
		if m.hasZero && !yield(0, m.zeroVal) {
			return
		}
		for _, s := range m.slots {
			if s.key != 0 && !yield(s.key, s.val) {
				return
			}
		}
	}
}

// resize moves the entries into a table of n slots, a power of two.
func (m *Map) resize(n int) {
	old := m.slots
	m.slots = make([]slot, n)
	m.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := m.home(s.key)
		for m.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}
