package kernel

import (
	"casvm/internal/la"
	"casvm/internal/trace"
)

// RowCache is an LRU cache of kernel rows K(i, ·) over a fixed training
// matrix. The SMO solver touches two rows per iteration (the high and low
// working-set indices); because violating pairs repeat heavily, a modest
// cache eliminates most kernel-row recomputation — the same optimisation
// LIBSVM and the paper's shared-memory SMO rely on.
//
// The cache is allocation-free after construction: slots, LRU order and the
// flat row block are an lruSlab (shared with ColumnCache), so a hit is two
// array reads and four link writes and a miss recomputes one row in place —
// no container/list element boxing, no per-miss make, nothing for the
// garbage collector to trace.
//
// RowCache is not safe for concurrent use; each solver owns one.
type RowCache struct {
	params Params
	data   *la.Matrix

	m       int // row length = data.Rows()
	threads int // intra-node workers for row fills
	lru     lruSlab

	// diag lazily caches the kernel diagonal for non-Gaussian kernels, so
	// per-iteration Diag lookups cost O(1) per sample after the first fill. (Gaussian diagonals are exactly 1.)
	diag []float64

	// Stats.
	hits, misses int64
	flops        float64 // flops charged by misses

	// rec, when non-nil, records a timeline span per miss (the
	// kernel-row fill is the solver's dominant non-O(m) cost).
	rec *trace.Recorder

	// Preallocated PrefetchPair scratch (at most two missing rows per
	// call), keeping the prefetch path allocation-free like Row.
	prefRows []int
	prefDst  [][]float64
}

// SetThreads lets cache misses compute rows with up to t goroutines
// (kernel.RowParallel). 0 or 1 keeps the serial path.
func (c *RowCache) SetThreads(t int) { c.threads = t }

// SetRecorder attaches a timeline recorder; each cache miss then records a
// "row-fill" span with its flop cost. A nil recorder (the default) keeps
// the hit and miss paths allocation-free no-ops.
func (c *RowCache) SetRecorder(rec *trace.Recorder) { c.rec = rec }

// NewRowCache creates a cache over the given matrix holding at most
// capacity rows (minimum 2, since SMO needs the high and low rows live at
// once). The whole block is allocated up front; untouched pages cost only
// virtual address space.
func NewRowCache(p Params, data *la.Matrix, capacity int) *RowCache {
	if capacity < 2 {
		capacity = 2
	}
	m := data.Rows()
	if capacity > m && m >= 2 {
		capacity = m
	}
	return &RowCache{
		params:   p,
		data:     data,
		m:        m,
		lru:      newLRUSlab(m, capacity, m),
		prefRows: make([]int, 0, 2),
		prefDst:  make([][]float64, 0, 2),
	}
}

// Row returns the kernel row K(i, ·) of length data.Rows(). The returned
// slice is owned by the cache and must not be modified; it stays valid
// until its entry is evicted (SMO's two live rows per iteration are safe
// for any capacity ≥ 2).
func (c *RowCache) Row(i int) []float64 {
	if s := c.lru.touch(i); s >= 0 {
		c.hits++
		return c.lru.row(s)
	}
	c.misses++
	row := c.lru.row(c.lru.acquire(i))
	sp := c.rec.Begin(trace.CatKernel, "row-fill")
	f := c.params.RowParallel(c.data, i, row, c.threads)
	c.rec.EndFlops(sp, f)
	c.flops += f
	return row
}

// PrefetchPair makes rows i and j resident, filling both misses through one
// shared-streaming tile (Params.Tile) so the training matrix is scanned
// once for the pair instead of once per row — SMO touches exactly this pair
// every iteration. Observable cache state afterwards (resident set,
// eviction victims, LRU order, miss count, charged flops) is identical to
// Row(i) followed by Row(j); rows already present are made most-recent but
// not counted as hits, so the later Row() reads account for themselves.
func (c *RowCache) PrefetchPair(i, j int) {
	c.prefRows = c.prefRows[:0]
	c.prefDst = c.prefDst[:0]
	c.prefetch(i)
	if j != i {
		c.prefetch(j)
	}
	if len(c.prefRows) == 0 {
		return
	}
	sp := c.rec.Begin(trace.CatKernel, "row-fill")
	f := c.params.Tile(c.data, c.prefRows, c.prefDst, c.threads)
	c.rec.EndFlops(sp, f)
	c.flops += f
}

// prefetch makes row i most recent when resident, or queues it (slot
// acquired, miss counted) for PrefetchPair's shared fill.
func (c *RowCache) prefetch(i int) {
	if c.lru.touch(i) >= 0 {
		return
	}
	c.misses++
	c.prefRows = append(c.prefRows, i)
	c.prefDst = append(c.prefDst, c.lru.row(c.lru.acquire(i)))
}

// Diag returns the kernel diagonal K(i,i) without touching the row cache;
// for the Gaussian kernel this is exactly 1. Non-Gaussian diagonals are
// computed once for every sample on first use and then served from the
// cache.
// Diagonal evaluations are deliberately not charged to the flop counter,
// matching the per-call evaluation they replace.
func (c *RowCache) Diag(i int) float64 {
	if c.params.Kind == Gaussian {
		return 1
	}
	if c.diag == nil {
		d := make([]float64, c.m)
		for j := 0; j < c.m; j++ {
			d[j] = c.params.Eval(c.data, j, c.data, j)
		}
		c.diag = d
	}
	return c.diag[i]
}

// Stats returns (hits, misses, flops charged by misses).
func (c *RowCache) Stats() (hits, misses int64, flops float64) {
	return c.hits, c.misses, c.flops
}
