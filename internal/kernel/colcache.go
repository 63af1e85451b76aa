package kernel

import "casvm/internal/la"

// ColumnCache is the cache distributed SMO replicates on every rank: an LRU
// keyed by global sample id over slots that each hold one sample of the
// working set — its row, that row's squared norm and its diagonal K(x, x) —
// and the column K(local block, x_g). Every rank touches and inserts the
// same ids in the same order, so the resident set is identical world-wide
// without any coordination — which is what lets a sender leave a resident
// sample's row off the wire. The cache only keeps the books; the holder
// writes an inserted slot's sample, column and diagonal
// (core's pairExchange.insert, smo.Solver.FillColumn).
//
// The working set of a dense block is one capacity × n matrix, held as
// chunk-sized dense row blocks: slot s is a row of block s/chunkRows, and
// each block caches its rows' norms, so a column is one CrossTile against a
// slot and K(high, low) one Eval between two. A CSR block's slot keeps the
// sample's own 1-row matrix instead.
//
// Slots, LRU order and column storage are the same lruSlab RowCache uses;
// the dense working set is a second rowStore on the same chunk pool, taken
// as slots are first handed out and given back by Release.
// ColumnCache is not safe for concurrent use; each rank owns one.
type ColumnCache struct {
	lru          lruSlab      // slot s's row is its column K(local block, x)
	ws           rowStore     // dense: slot s's row is its sample
	blocks       []*la.Matrix // dense: ws chunk c as a matrix, norms cached
	csr          []*la.Matrix // CSR: slot -> the sample's own 1-row matrix
	diag         []float64    // slot -> K(x, x)
	hits, misses int64
}

// NewColumnCache creates a cache for global ids in [0, keys) holding at most
// capacity samples (minimum 2: the high and low samples are live at once)
// of local's width and storage kind, and their columns against local.
func NewColumnCache(keys, capacity int, local *la.Matrix) *ColumnCache {
	capacity = max(capacity, 2)
	c := &ColumnCache{
		lru:  newLRUSlab(keys, capacity, local.Rows()),
		diag: make([]float64, capacity),
	}
	if local.Sparse() {
		c.csr = make([]*la.Matrix, capacity)
	} else {
		c.ws = newRowStore(capacity, local.Features())
	}
	return c
}

// Resident reports whether id g is cached, without touching the LRU order.
func (c *ColumnCache) Resident(g int) bool { return c.lru.slotOf[g] >= 0 }

// Get returns g's slot, made most recently used and counted as a hit, or -1
// when g is not resident. The slot holds g until it is evicted or the cache
// is released; with capacity ≥ 2 a following Put cannot evict it.
func (c *ColumnCache) Get(g int) int32 {
	s := c.lru.touch(g)
	if s >= 0 {
		c.hits++
	}
	return s
}

// Put gives the non-resident id g a slot, evicting the least recently used
// sample once the cache is full, and counts a miss. x is a CSR cache's
// sample, a 1-row matrix the slot keeps; a dense cache takes nil and the
// caller decodes the sample into the slot's row (Sample,
// la.Matrix.DecodeRowInto). The caller then writes the slot's column and
// diagonal, every entry: slot storage comes unzeroed from the chunk pool.
func (c *ColumnCache) Put(g int, x *la.Matrix) int32 {
	c.misses++
	s := c.lru.acquire(g)
	if c.csr != nil {
		c.csr[s] = x
	} else if rows := c.ws.grow(s, len(c.diag)); rows > 0 {
		// The new chunk's rows are a block of their own. Its norm cache is
		// made here, over rows not yet written, so that a decode into it
		// allocates nothing.
		b := la.NewDense(rows, c.ws.rowLen, c.ws.chunks[len(c.ws.chunks)-1])
		b.EnsureNorms()
		c.blocks = append(c.blocks, b)
	}
	return s
}

// Sample returns the matrix and row that hold slot s's sample.
func (c *ColumnCache) Sample(s int32) (*la.Matrix, int) {
	if c.csr != nil {
		return c.csr[s], 0
	}
	return c.blocks[uint32(s)/c.ws.chunkRows], int(uint32(s) % c.ws.chunkRows)
}

// Column returns slot s's column storage, K[i] = K(local row i, x).
func (c *ColumnCache) Column(s int32) []float64 { return c.lru.row(s) }

// Diag returns slot s's K(x, x).
func (c *ColumnCache) Diag(s int32) float64 { return c.diag[s] }

// SetDiag records slot s's K(x, x).
func (c *ColumnCache) SetDiag(s int32, k float64) { c.diag[s] = k }

// Release gives the cache's column and working-set storage back to the
// chunk pool and empties the cache; its hit and miss counters stay. Every
// slot, and everything Sample or Column returned, is invalid from here on.
// A released cache can be used again: it starts cold.
func (c *ColumnCache) Release() {
	c.lru.release()
	c.ws.release()
	clear(c.blocks)
	c.blocks = c.blocks[:0]
	clear(c.csr)
}

// Stats returns (hits, misses).
func (c *ColumnCache) Stats() (hits, misses int64) { return c.hits, c.misses }
