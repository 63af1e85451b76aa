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
	return &ColumnCache{
		lru:  newLRUSlab(keys, capacity, rowLen),
		cols: make([]Column, capacity),
	}
}

// Resident reports whether id g is cached, without touching the LRU order.
func (c *ColumnCache) Resident(g int) bool { return c.lru.slotOf[g] >= 0 }

// Get returns g's entry, made most recently used and counted as a hit, or
// nil when g is not resident. The entry stays valid until it is evicted or
// the cache is released; with capacity ≥ 2 a following Put cannot evict it.
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
// fills the returned entry's K and Diag, every entry of K: its storage comes
// unzeroed from the chunk pool (smo.Solver.FillColumn writes all of it).
func (c *ColumnCache) Put(g int, x *la.Matrix, y float64) *Column {
	c.misses++
	s := c.lru.acquire(g)
	e := &c.cols[s]
	// Bound here, not at construction, so that a slot's storage is allocated
	// only once a column lands in it.
	e.X, e.Y, e.K = x, y, c.lru.row(s)
	return e
}

// Release gives the cache's column storage back to the chunk pool and
// empties the cache; its hit and miss counters stay. Every entry Get or Put
// returned before is invalid from here on. A released cache can be used
// again: it starts cold.
func (c *ColumnCache) Release() {
	c.lru.release()
	clear(c.cols)
}

// Stats returns (hits, misses).
func (c *ColumnCache) Stats() (hits, misses int64) { return c.hits, c.misses }
