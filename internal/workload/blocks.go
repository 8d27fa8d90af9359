package workload

// blockLen is the number of elements in one block of a blockTable.
const blockLen = 1024

// blockTable is a table of T indexed from 0 that grows at its tail in
// fixed-size blocks, so growing it never copies its elements and an index
// costs a shift and two loads. dropBelow hands the blocks wholly below an
// index to the tail for reuse: a FIFO whose head only advances keeps as many
// blocks as it has elements between head and tail, plus one.
type blockTable[T any] struct {
	blocks [][]T // blocks[k] holds indices (off+k)*blockLen onwards
	spare  [][]T // dropped blocks, reused before new ones are made
	off    int   // block number of blocks[0]
	n      int   // elements pushed, the table's length
}

// len returns the number of elements pushed.
func (t *blockTable[T]) len() int { return t.n }

// at returns element i, which must be in [the dropped prefix, len).
func (t *blockTable[T]) at(i int) *T {
	return &t.blocks[i/blockLen-t.off][i%blockLen]
}

// push appends v.
func (t *blockTable[T]) push(v T) {
	if t.n%blockLen == 0 {
		var b []T
		if k := len(t.spare); k > 0 {
			b, t.spare = t.spare[k-1], t.spare[:k-1]
		} else {
			b = make([]T, blockLen)
		}
		t.blocks = append(t.blocks, b)
	}
	*t.at(t.n) = v
	t.n++
}

// dropBelow releases the blocks whose elements all lie below index i; the
// table must not be read below i afterwards.
func (t *blockTable[T]) dropBelow(i int) {
	for (t.off+1)*blockLen <= i {
		t.spare = append(t.spare, t.blocks[0])
		t.blocks = t.blocks[1:]
		t.off++
	}
}
