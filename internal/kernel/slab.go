package kernel

// lruSlab is the bookkeeping the package's two caches share: a fixed number
// of slots, each owning one row of a flat preallocated block; an intrusive
// LRU list over slot numbers backed by two int32 slices; and a
// direct-indexed key→slot table. It knows nothing about what a row holds —
// RowCache keys it by local sample index with rows of K(i, ·), ColumnCache
// by global sample id with columns K(local block, x_g).
//
// Nothing here allocates after construction: a touch is two array reads and
// four link writes, an acquire reuses the LRU victim's slot in place.
type lruSlab struct {
	rowLen int
	slotOf []int32   // key -> slot, or -1
	keyOf  []int32   // slot -> key (meaningful for slots < used)
	next   []int32   // slot -> next (toward LRU), -1 at tail
	prev   []int32   // slot -> prev (toward MRU), -1 at head
	head   int32     // most recently used slot, -1 when empty
	tail   int32     // least recently used slot, -1 when empty
	used   int       // slots filled so far (grows to capacity, never shrinks)
	block  []float64 // slot s holds its row at block[s*rowLen : (s+1)*rowLen]
}

// newLRUSlab sizes a slab for keys in [0, keys) holding at most capacity
// rows of rowLen values. The whole block is allocated up front.
func newLRUSlab(keys, capacity, rowLen int) lruSlab {
	l := lruSlab{
		rowLen: rowLen,
		slotOf: make([]int32, keys),
		keyOf:  make([]int32, capacity),
		next:   make([]int32, capacity),
		prev:   make([]int32, capacity),
		head:   -1,
		tail:   -1,
		block:  make([]float64, capacity*rowLen),
	}
	for i := range l.slotOf {
		l.slotOf[i] = -1
	}
	return l
}

// row returns slot s's storage.
func (l *lruSlab) row(s int32) []float64 {
	return l.block[int(s)*l.rowLen : int(s)*l.rowLen+l.rowLen]
}

// unlink detaches slot s from the LRU list.
func (l *lruSlab) unlink(s int32) {
	p, n := l.prev[s], l.next[s]
	if p >= 0 {
		l.next[p] = n
	} else {
		l.head = n
	}
	if n >= 0 {
		l.prev[n] = p
	} else {
		l.tail = p
	}
}

// pushFront makes slot s the most recently used.
func (l *lruSlab) pushFront(s int32) {
	l.prev[s] = -1
	l.next[s] = l.head
	if l.head >= 0 {
		l.prev[l.head] = s
	}
	l.head = s
	if l.tail < 0 {
		l.tail = s
	}
}

// touch returns key's slot, made most recently used, or -1 when key is not
// resident.
func (l *lruSlab) touch(key int) int32 {
	s := l.slotOf[key]
	if s >= 0 && l.head != s {
		l.unlink(s)
		l.pushFront(s)
	}
	return s
}

// acquire gives the non-resident key a slot — the LRU victim's once the slab
// is full — and makes it most recently used immediately, so a second
// acquisition in the same batch cannot evict it (capacity ≥ 2 guarantees a
// distinct tail). The caller fills the slot's row.
func (l *lruSlab) acquire(key int) int32 {
	var s int32
	if l.used < len(l.keyOf) {
		s = int32(l.used)
		l.used++
	} else {
		s = l.tail
		l.slotOf[l.keyOf[s]] = -1
		l.unlink(s)
	}
	l.keyOf[s] = int32(key)
	l.slotOf[key] = s
	l.pushFront(s)
	return s
}
