package kernel

import "casvm/internal/la"

// Column is one ColumnCache entry: a sample as it came off the wire and its
// cross-kernel column against the holder's local block.
type Column struct {
	X    *la.Matrix // the sample, a 1-row matrix
	Y    float64    // its label
	Diag float64    // K(x, x)
	K    []float64  // K[i] = K(local row i, x); owned by the cache
}

// ColumnCache is the cache distributed SMO replicates on every rank: an LRU
// keyed by global sample id whose entries hold the sample itself and the
// column K(local block, x_g). Every rank touches and inserts the same ids in
// the same order, so the resident set is identical world-wide without any
// coordination — which is what lets a sender leave a resident sample's row
// off the wire. The cache only keeps the books; the holder fills an inserted
// entry's column and diagonal (smo.Solver.FillColumn).
//
// Slots, LRU order and column storage are the same lruSlab RowCache uses.
// ColumnCache is not safe for concurrent use; each rank owns one.
type ColumnCache struct {
	lru          lruSlab
	cols         []Column // slot -> entry; K is the slot's slab row
	hits, misses int64
}

// NewColumnCache creates a cache for global ids in [0, keys) holding at most
// capacity columns (minimum 2: the high and low samples are live at once) of
// rowLen values each.
func NewColumnCache(keys, capacity, rowLen int) *ColumnCache {
	if capacity < 2 {
		capacity = 2
	}
	c := &ColumnCache{
		lru:  newLRUSlab(keys, capacity, rowLen),
		cols: make([]Column, capacity),
	}
	for s := range c.cols {
		c.cols[s].K = c.lru.row(int32(s))
	}
	return c
}

// Resident reports whether id g is cached, without touching the LRU order.
func (c *ColumnCache) Resident(g int) bool { return c.lru.slotOf[g] >= 0 }

// Get returns g's entry, made most recently used and counted as a hit, or
// nil when g is not resident. The entry stays valid until it is evicted;
// with capacity ≥ 2 a following Put cannot evict it.
func (c *ColumnCache) Get(g int) *Column {
	s := c.lru.touch(g)
	if s < 0 {
		return nil
	}
	c.hits++
	return &c.cols[s]
}

// Put inserts the non-resident id g with its sample, evicting the least
// recently used entry once the cache is full, and counts a miss. The caller
// fills the returned entry's K and Diag.
func (c *ColumnCache) Put(g int, x *la.Matrix, y float64) *Column {
	c.misses++
	e := &c.cols[c.lru.acquire(g)]
	e.X, e.Y = x, y
	return e
}

// Stats returns (hits, misses).
func (c *ColumnCache) Stats() (hits, misses int64) { return c.hits, c.misses }
