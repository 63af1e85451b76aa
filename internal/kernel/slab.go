package kernel

import "sync"

// lruSlab is the bookkeeping the package's two caches share: a fixed number
// of slots, each owning one row of chunked storage; an intrusive LRU list
// over slot numbers backed by two int32 slices; and a direct-indexed
// key→slot table. It knows nothing about what a row holds — RowCache keys it
// by local sample index with rows of K(i, ·), ColumnCache by global sample
// id with columns K(local block, x_g).
//
// Row storage grows as rows land: acquire takes a chunk of up to chunkRows
// rows from the process-wide chunk pool (slabChunks) when it hands out the
// first slot of one, and release gives every chunk back, so a job's solves
// run on the storage of the solves before them instead of on fresh, zeroed
// allocations. A chunk is a whole pooled array even when it holds fewer
// rows — a cache's last chunk, or the only one of a cache smaller than a
// chunk — so a cache holds up to one array (128 KiB) more than its rows
// need. A pooled chunk arrives holding whatever its last cache wrote; that
// is safe because both fills write every entry of a row before anything
// reads it (RowCache.fill and fillWhole, smo.Solver.FillColumn), a
// ColumnCache working-set row is decoded whole, norm included, before it
// is read (la.Matrix.DecodeRowInto), and a block's dense copy, which
// borrows chunks for one whole fill, clears its rows before it copies into
// them (compact). Chunks are never moved
// or copied, so a row's address is fixed from its first acquisition until
// release. Once every slot has been handed out nothing here allocates: a
// touch is two array reads and four link writes, an acquire reuses the LRU
// victim's slot in place.
type lruSlab struct {
	rowStore         // slot s's row
	slotOf   []int32 // key -> slot, or -1
	keyOf    []int32 // slot -> key (meaningful for slots < used)
	next     []int32 // slot -> next (toward LRU), -1 at tail
	prev     []int32 // slot -> prev (toward MRU), -1 at head
	head     int32   // most recently used slot, -1 when empty
	tail     int32   // least recently used slot, -1 when empty
	used     int     // slots filled so far (grows to capacity; release empties it)
}

// rowStore is one row of rowLen values per slot, in chunks taken from the
// chunk pool as slots are first handed out (grow) and given back by
// release. lruSlab keeps a cache's rows in one; ColumnCache keeps a second,
// its working set, whose rows are the samples themselves.
type rowStore struct {
	rowLen    int
	chunkRows uint32      // rows per chunk; the last may hold fewer
	chunks    [][]float64 // chunk c holds slots c·chunkRows onward, rowLen values each
}

// slabChunkBytes is the size of a chunk of row storage: 16 pages of the Go
// allocator, which a chunk fills to within one row. Smaller chunks track the
// rows in use more closely, larger ones are fetched less often.
const slabChunkBytes = 128 << 10

// slabChunkLen is how many values a chunk holds.
const slabChunkLen = slabChunkBytes / 8

// slabChunk is one pooled chunk of row storage.
type slabChunk [slabChunkLen]float64

// slabChunks recycles chunks across caches, across the rank goroutines that
// own them and across jobs. It hands chunks out unzeroed. A row longer than
// one chunk (more than slabChunkLen values) gets a chunk of its own size,
// allocated and dropped as before.
var slabChunks chunkList

// maxFreeChunks bounds what slabChunks keeps while no cache holds it:
// 32 MiB, eight times the most any benchmark job holds at once (Dis-SMO at
// P = 4, 32 chunks). A chunk given back past the bound is dropped.
const maxFreeChunks = 256

// chunkList is a free list of chunks, not a sync.Pool: a collection does
// not empty it. A sync.Pool drops whatever two collections find unused, so a
// job that followed two collections took every chunk afresh, and how often
// that happened turned on where collections fell, not on the job.
type chunkList struct {
	mu   sync.Mutex
	free []*slabChunk
}

// Get returns the chunk given back last, or a new one.
func (l *chunkList) Get() *slabChunk {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(slabChunk)
	}
	c := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return c
}

// Put gives c back, or drops it when the list holds maxFreeChunks.
func (l *chunkList) Put(c *slabChunk) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < maxFreeChunks {
		l.free = append(l.free, c)
	}
}

// newLRUSlab sizes a slab for keys in [0, keys) holding at most capacity
// rows of rowLen values. Row storage is taken as slots are acquired.
func newLRUSlab(keys, capacity, rowLen int) lruSlab {
	l := lruSlab{
		rowStore: newRowStore(capacity, rowLen),
		slotOf:   make([]int32, keys),
		keyOf:    make([]int32, capacity),
		next:     make([]int32, capacity),
		prev:     make([]int32, capacity),
		head:     -1,
		tail:     -1,
	}
	for i := range l.slotOf {
		l.slotOf[i] = -1
	}
	return l
}

// newRowStore sizes an empty store for up to capacity rows of rowLen values.
func newRowStore(capacity, rowLen int) rowStore {
	chunkRows := max(1, min(capacity, slabChunkBytes/(8*max(1, rowLen))))
	return rowStore{rowLen: rowLen, chunkRows: uint32(chunkRows)}
}

// row returns slot s's storage.
func (st *rowStore) row(s int32) []float64 {
	c, r := uint32(s)/st.chunkRows, uint32(s)%st.chunkRows
	return st.chunks[c][int(r)*st.rowLen : int(r+1)*st.rowLen]
}

// rowsFrom returns the storage of slot s's row and of the slots after it in
// the same chunk, back to back, rowLen values each.
func (st *rowStore) rowsFrom(s int32) []float64 {
	c, r := uint32(s)/st.chunkRows, uint32(s)%st.chunkRows
	return st.chunks[c][int(r)*st.rowLen:]
}

// grow takes the chunk that slot s starts when s is the first slot past the
// chunks held (slots are handed out in order, from 0), sized to hold the
// rows up to capacity, and returns that chunk's row count; otherwise it
// takes nothing and returns 0.
func (st *rowStore) grow(s int32, capacity int) int {
	if int(s) != len(st.chunks)*int(st.chunkRows) {
		return 0
	}
	rows := min(int(st.chunkRows), capacity-int(s))
	st.chunks = append(st.chunks, takeChunk(rows*st.rowLen))
	return rows
}

// release gives every chunk back, pooled ones to the pool. Rows handed out
// before are invalid from here on: their storage may already back another
// cache.
func (st *rowStore) release() {
	for i, c := range st.chunks {
		if cap(c) == slabChunkLen {
			slabChunks.Put((*slabChunk)(c[:cap(c)]))
		}
		st.chunks[i] = nil
	}
	st.chunks = st.chunks[:0]
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

// acquire gives the non-resident key a slot — a fresh one while the slab
// has any, taking the chunk it starts, then the LRU victim's — and
// makes it most recently used immediately, so a second acquisition in the
// same batch cannot evict it (capacity ≥ 2 guarantees a distinct tail). The
// caller fills the slot's row.
func (l *lruSlab) acquire(key int) int32 {
	var s int32
	if l.used < len(l.keyOf) {
		s = int32(l.used)
		l.grow(s, len(l.keyOf))
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

// takeChunk returns storage for n values: none for none, a pooled chunk
// when n fits in one, otherwise a fresh allocation.
func takeChunk(n int) []float64 {
	if n == 0 {
		return nil
	}
	if n > slabChunkLen {
		return make([]float64, n)
	}
	return slabChunks.Get()[:n]
}

// release gives every chunk back (rowStore.release) and empties the slab,
// which keeps its capacity and can be filled again.
func (l *lruSlab) release() {
	l.rowStore.release()
	for s := range l.used {
		l.slotOf[l.keyOf[s]] = -1
	}
	l.used, l.head, l.tail = 0, -1, -1
}
