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
// A miss evaluates only what the cache does not already hold. K is symmetric
// and every scalar recipe under it is symmetric bit for bit (see fill), so a
// missing row i takes column j from the resident row j's entry i and
// evaluates the columns whose rows are absent; with nothing resident that is
// the whole row.
//
// Slots, LRU order and the chunked row storage are an lruSlab (shared with
// ColumnCache), so a hit is two array reads and four link writes and a miss
// fills one row in place — no container/list element boxing, no per-miss
// make, nothing for the garbage collector to trace. The only allocations are
// the storage chunks, one per chunk of fresh slots; a full cache allocates
// nothing.
//
// RowCache is not safe for concurrent use; each solver owns one.
type RowCache struct {
	params Params
	data   *la.Matrix

	m   int // row length = data.Rows()
	lru lruSlab

	// diag lazily caches the kernel diagonal for non-Gaussian kernels, so
	// per-iteration Diag lookups cost O(1) per sample after the first fill. (Gaussian diagonals are exactly 1.)
	diag []float64

	// Stats.
	hits, misses int64
	flops        float64 // flops charged by misses

	// rec, when non-nil, records a timeline span per miss (the
	// kernel-row fill is the solver's dominant non-O(m) cost).
	rec *trace.Recorder

	// Preallocated fill scratch: the missing rows of the current call (at
	// most two) with their slots' storage, and the columns fill evaluates.
	missRows []int
	missDst  [][]float64
	cols     []int32
}

// SetRecorder attaches a timeline recorder; each cache miss then records a
// "row-fill" span with its flop cost. A nil recorder (the default) keeps
// the hit and miss paths allocation-free no-ops.
func (c *RowCache) SetRecorder(rec *trace.Recorder) { c.rec = rec }

// NewRowCache creates a cache over the given matrix holding at most
// capacity rows (minimum 2, since SMO needs the high and low rows live at
// once). Row storage is allocated in chunks as misses land (lruSlab), so the
// allocator zeroes only about the rows a solve touches: a casvm-dense rank
// fills ~70% of its capacity, and a cache nothing reads allocates no rows.
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
		missRows: make([]int, 0, 2),
		missDst:  make([][]float64, 0, 2),
		cols:     make([]int32, m),
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
	c.missRows, c.missDst = c.missRows[:0], c.missDst[:0]
	c.miss(i)
	c.fill()
	return c.missDst[0]
}

// PrefetchPair makes rows i and j resident, filling both misses through one
// shared-streaming tile (Params.Tile) so the training matrix is scanned
// once for the pair instead of once per row — SMO touches exactly this pair
// every iteration. Row contents, the resident set, eviction victims, LRU
// order and the miss count afterwards are identical to Row(i) followed by
// Row(j); rows already present are made most-recent but not counted as
// hits, so the later Row() reads account for themselves. The flop charge
// equals the sequential one (K(i,j) is evaluated once either way) except in
// a double miss whose second acquisition evicts: Row(i) would still find that
// victim resident and copy its column, while the pair has evicted both
// victims before it fills and evaluates that one entry more.
func (c *RowCache) PrefetchPair(i, j int) {
	c.missRows, c.missDst = c.missRows[:0], c.missDst[:0]
	if c.lru.touch(i) < 0 {
		c.miss(i)
	}
	if j != i && c.lru.touch(j) < 0 {
		c.miss(j)
	}
	if len(c.missRows) > 0 {
		c.fill()
	}
}

// miss counts a miss on the non-resident row i, acquires its slot and queues
// it for fill.
func (c *RowCache) miss(i int) {
	c.misses++
	c.missRows = append(c.missRows, i)
	c.missDst = append(c.missDst, c.lru.row(c.lru.acquire(i)))
}

// fill is the one fill routine: it completes the one or two queued rows,
// whose slots are already acquired. Column j of a missing row i is copied
// from row j's entry i when row j is resident and complete — every slot but
// the ones acquired in this call, a reused victim's included — and evaluated
// otherwise. The copy is exact because each scalar recipe is symmetric bit
// for bit: la.SqDist squares (a−b), and (b−a)² is the same float; la.Dot and
// la.SpDot multiply the same pairs into the same accumulators in the same
// order, and products commute; the sparse Gaussian adds the two norms before
// subtracting 2·dot, and the sum commutes (TestKernelBitwiseSymmetric). A
// double miss evaluates K(i0, i1) once: both rows share every absent column
// except i0 itself, which only row i0 still needs once K(i1, i0) is mirrored.
//
// Flops follow the work: a copied entry charges nothing, as a hit charges
// nothing; evaluated columns charge Tile's per-row formula.
func (c *RowCache) fill() {
	sp := c.rec.Begin(trace.CatKernel, "row-fill")
	rows, dsts := c.missRows, c.missDst
	l, m := &c.lru, c.m
	// The columns to evaluate: every absent row's, ascending, then the
	// missing rows' own, the first row's last. Every index is written and n
	// advances only past an absent one — a conditional move, not a branch:
	// residency is as good as random along the column axis, and a mispredicted
	// branch per resident column costs what evaluating a narrow one does.
	cols, n := c.cols, 0
	for j, s := range l.slotOf {
		cols[n] = int32(j)
		if s < 0 {
			n++
		}
	}
	for k := len(rows) - 1; k >= 0; k-- {
		cols[n] = int32(rows[k])
		n++
	}
	cols = cols[:n]
	var f float64
	if len(rows) == 2 {
		f = c.params.Tile(c.data, rows, dsts, cols[:n-1])
		f += c.params.Tile(c.data, rows[:1], dsts[:1], cols[n-1:])
		dsts[1][rows[0]] = dsts[0][rows[1]]
	} else {
		f = c.params.Tile(c.data, rows, dsts, cols)
	}
	s0 := l.slotOf[rows[0]]
	s1 := l.slotOf[rows[len(rows)-1]]
	// Copy after evaluating: the evaluation has just written the new rows
	// front to back, so these scattered stores land in cache. Copying into a
	// reused victim's cold row first costs a store miss per entry, more than
	// evaluating it (BenchmarkRowCache/dense-large-stride). Sources go chunk
	// by chunk in slot order, ascending addresses within each. With one
	// missing row, (i1, d1) is (i0, d0) and the second store repeats the
	// first, which costs less than a loop over the missing rows.
	i0, i1 := rows[0], rows[len(rows)-1]
	d0, d1 := dsts[0], dsts[len(rows)-1]
	s := int32(0)
	for _, chunk := range l.chunks {
		for ; len(chunk) >= m && s < int32(l.used); s++ {
			src := chunk[:m]
			chunk = chunk[m:]
			if s != s0 && s != s1 {
				j := l.keyOf[s]
				d0[j], d1[j] = src[i0], src[i1]
			}
		}
	}
	c.rec.EndFlops(sp, f)
	c.flops += f
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
