package kernel

import (
	"sync"

	"casvm/internal/la"
	"casvm/internal/trace"
)

// RowCache is an LRU cache of kernel rows K(i, ·) over a fixed training
// matrix. The SMO solver touches two rows per iteration (the high and low
// working-set indices); because violating pairs repeat heavily, a modest
// cache eliminates most kernel-row recomputation — the same optimisation
// LIBSVM and the paper's shared-memory SMO rely on.
//
// A cache whose capacity covers every row holds the whole kernel matrix, and
// its first Row or PrefetchPair computes all of it at once (fillWhole): the
// upper triangle in blocks of rows on the Dot4 panels, the lower one
// mirrored. That is a CA-SVM rank's case — its m/P samples fit the default
// capacity — and it evaluates each entry about once, where row-at-a-time
// misses evaluate and copy most of the matrix piecemeal. A CSR block dense
// enough on its column support is evaluated as the dense matrix it is copied
// into, over that support (compact): its entries are Eval over the compacted
// matrix, which equals CSR Eval up to rounding because dot products and norms
// do not depend on the order of the columns, nor on columns zero in every
// row.
//
// A smaller cache fills lazily: a miss evaluates only what the cache does not
// already hold. K is symmetric and every entry is symmetric bit for bit (see
// fill), so a missing row i takes column j from the resident row j's entry i
// and evaluates the columns whose rows are absent — with nothing resident
// that is the whole row — as CrossTile columns: the absent rows against row
// i.
//
// Slots, LRU order and the chunked row storage are an lruSlab (shared with
// ColumnCache), so a hit is two array reads and four link writes and a miss
// fills one row in place — no container/list element boxing, no per-miss
// make, nothing for the garbage collector to trace. Storage chunks come from
// a process-wide pool, one per chunk of fresh slots, and go back to it at
// Release; a full cache allocates nothing.
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

	// whole marks a cache whose capacity covers every row: it fills them all
	// at its first miss (fillWhole) and never misses again until Release.
	whole bool

	// Preallocated lazy-fill scratch: the missing rows of the current call
	// (at most two) with their slots' storage, the columns fill evaluates
	// and a tile's outputs. A whole cache has none.
	missRows []int
	missDst  [][]float64
	cols     []int
	out      []float64
}

// SetRecorder attaches a timeline recorder; each cache miss then records a
// "row-fill" span with its flop cost. A nil recorder (the default) keeps
// the hit and miss paths allocation-free no-ops.
func (c *RowCache) SetRecorder(rec *trace.Recorder) { c.rec = rec }

// NewRowCache creates a cache over the given matrix holding at most
// capacity rows (minimum 2, since SMO needs the high and low rows live at
// once). Row storage is taken from the chunk pool (lruSlab), unzeroed: all
// of it at the first miss when the capacity covers every row, and as misses
// land otherwise, so a smaller cache holds only about the rows a solve
// touches. A cache nothing reads holds no rows, and a cache that follows a
// released one reuses its storage.
func NewRowCache(p Params, data *la.Matrix, capacity int) *RowCache {
	if capacity < 2 {
		capacity = 2
	}
	m := data.Rows()
	if capacity > m && m >= 2 {
		capacity = m
	}
	c := &RowCache{
		params: p,
		data:   data,
		m:      m,
		lru:    newLRUSlab(m, capacity, m),
		whole:  capacity >= m,
	}
	if !c.whole {
		c.missRows = make([]int, 0, 2)
		c.missDst = make([][]float64, 0, 2)
		c.cols = make([]int, m)
		c.out = make([]float64, m)
	}
	return c
}

// Row returns the kernel row K(i, ·) of length data.Rows(). The returned
// slice is owned by the cache and must not be modified; it stays valid
// until its entry is evicted (SMO's two live rows per iteration are safe
// for any capacity ≥ 2) or the cache is released, whichever comes first.
func (c *RowCache) Row(i int) []float64 {
	if s := c.lru.touch(i); s >= 0 {
		c.hits++
		return c.lru.row(s)
	}
	if c.whole {
		c.fillWhole(compactDensity)
		return c.lru.row(c.lru.touch(i))
	}
	c.missRows, c.missDst = c.missRows[:0], c.missDst[:0]
	c.miss(i)
	c.fill()
	return c.missDst[0]
}

// PrefetchPair makes rows i and j resident, filling both misses in one pass
// (fill: each chunk of columns serves both rows) so the training matrix is
// scanned once for the pair instead of once per row — SMO touches exactly
// this pair every iteration. Row contents, the resident set, eviction
// victims, LRU order and the miss count afterwards are identical to Row(i)
// followed by Row(j); rows already present are made most-recent but not
// counted as hits, so the later Row() reads account for themselves. The flop
// charge equals the sequential one (K(i,j) is evaluated once either way)
// except in a double miss whose second acquisition evicts: Row(i) would
// still find that victim resident and copy its column, while the pair has
// evicted both victims before it fills and evaluates that one entry more. On
// a whole cache the pair's first call fills every row, as Row(i) would.
func (c *RowCache) PrefetchPair(i, j int) {
	if c.whole {
		if c.lru.used == 0 {
			c.fillWhole(compactDensity)
		}
		c.lru.touch(i)
		c.lru.touch(j)
		return
	}
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

// Release gives the cache's row storage back to the chunk pool and empties
// the cache; its hit, miss and flop counters stay. Every row Row returned
// before is invalid from here on, since another cache may already be writing
// its storage. A released cache can be used again: it starts cold.
func (c *RowCache) Release() { c.lru.release() }

// miss counts a miss on the non-resident row i, acquires its slot and queues
// it for fill.
func (c *RowCache) miss(i int) {
	c.misses++
	c.missRows = append(c.missRows, i)
	c.missDst = append(c.missDst, c.lru.row(c.lru.acquire(i)))
}

// fill is the one fill routine: it completes the one or two queued rows,
// whose slots are already acquired. It writes every entry of both rows, which
// is what lets their storage come unzeroed from the chunk pool: the
// evaluated columns are every absent row's plus the missing rows' own, the
// copied ones are every other resident row's, and absent, missing and
// resident together are all of [0, m). Column j of a missing row i is copied
// from row j's entry i when row j is resident and complete — every slot but
// the ones acquired in this call, a reused victim's included — and evaluated
// otherwise. The copy is exact because Eval's recipe is symmetric bit for
// bit: la.Dot and la.SpDot multiply the same pairs into the same accumulators
// in the same order, and products commute; the Gaussian adds the two norms
// before subtracting 2·dot, and the sum commutes (TestKernelBitwiseSymmetric). A
// double miss evaluates K(i0, i1) once: both rows share every absent column
// except i0 itself, which only row i0 still needs once K(i1, i0) is mirrored.
//
// The evaluation is CrossTile transposed — the listed columns are the tile's
// rows, against the missing row as a one-column block — which is exact for
// the same symmetry. A double miss goes fillChunk columns at a time, both
// missing rows per chunk, so it streams the chunk's rows once for both; a
// single miss streams every row once however it is cut, and makes one tile.
//
// Flops follow the work: a copied entry charges nothing, as a hit charges
// nothing; a missing row charges 2·nnz(row)·w + w for its w evaluated
// columns (tileFlops), nnz counted in the missing row.
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
		cols[n] = j
		if s < 0 {
			n++
		}
	}
	for k := len(rows) - 1; k >= 0; k-- {
		cols[n] = rows[k]
		n++
	}
	// Missing row k evaluates cols[:n-k]: the second row leaves out the
	// first's, which it mirrors afterwards.
	step, out := n, c.out
	if len(rows) == 2 {
		step = fillChunk
	}
	for lo := 0; lo < n; lo += step {
		for k, i := range rows {
			chunk := cols[lo:min(lo+step, n-k)]
			c.params.CrossTile(c.data, chunk, c.data, i, i+1, out[:len(chunk)], 1)
			dst := dsts[k]
			for r, j := range chunk {
				dst[j] = out[r]
			}
		}
	}
	var f float64
	for k, i := range rows {
		f += tileFlops(c.data, i, n-k)
	}
	if len(rows) == 2 {
		dsts[1][rows[0]] = dsts[0][rows[1]]
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

// fillChunk is how many columns a double miss evaluates per CrossTile call:
// enough to amortise the call and the Gaussian's exp batch, few enough that
// the chunk's rows stay cache-resident while both missing rows take them.
const fillChunk = 128

// wholeBlock is how many rows fillWhole evaluates per tile: four Dot4
// panels, so every column row streamed serves sixteen entries, while the
// block's own rows stay in L1.
const wholeBlock = 16

// fillWhole fills every row of an empty whole cache: m misses, and all m
// slots acquired up front, in row order, so that slot s holds row s and every
// row has its storage before any block is evaluated. The upper triangle is
// evaluated in blocks of up to wholeBlock consecutive rows [lo, hi) that never
// straddle a storage chunk, so a block's rows are back to back (ld = m). A
// block takes one tile over its own columns [lo, hi), which evaluates its own
// lower triangle too, and one over the columns right of it, [hi, m), which
// stores K(r, c) into the block's row r and, as the mirror, into row c at
// column r (wholeTile; la.Mirror over the cache's chunks). A row's columns
// left of its block are thus stored by the blocks above it, and a pooled
// chunk's stale contents are all overwritten. The mirrored value is the entry
// itself, which equals Eval(c, r) because entries are bitwise symmetric
// (fill).
//
// A Gaussian block over dense rows goes through la.ExpDistTile: each panel
// finishes its distances and their exps in registers and stores every value
// into both triangles from there, stepping from one storage chunk of mirror
// rows to the next itself, so the block is not read back. Other kernels, and
// CSR blocks that do not compact, take CrossTile, and their mirror is stored
// from its tile in the same push order (la.Mirror.Store).
//
// A CSR block dense enough on its column support (compact, at minDensity;
// Row and PrefetchPair pass compactDensity) is evaluated over its dense copy
// instead, the same blocks on the Dot4 panels where CSR rows take a gather
// per stored entry. Every entry is then Eval over the compacted matrix, bit
// for bit, rather than over the CSR one: a kernel of Table I depends only on
// dot products and norms, and dropping columns that are zero in every row
// changes those only by rounding (within 1e-14 of CSR Eval, which
// TestCompactedFillOracle holds). A Gaussian diagonal entry is still exactly
// 1, Diag's value, since the copy's norm is the Dot of its row with itself.
// Every other block's entries are Eval's over the CSR rows. Each part of the
// copy goes back to the pool once the blocks have passed its rows.
//
// Flops follow the work, as in fill: every evaluated entry charges the
// storage's per-row formula, 2·nnz(row)·w + w over the block's w = m − lo
// columns, nnz counted in the CSR row whether or not the block was
// compacted; a mirrored entry charges nothing.
func (c *RowCache) fillWhole(minDensity float64) {
	sp := c.rec.Begin(trace.CatKernel, "row-fill")
	l, m := &c.lru, c.m
	c.misses += int64(m)
	for i := range m {
		l.acquire(i)
	}
	dc, compacted := compact(c.data, minDensity)
	if !compacted {
		dc = denseCopy{rows: m, partRows: m, parts: []*la.Matrix{c.data}}
	}
	var f float64
	for lo := 0; lo < m; {
		dc.releaseBelow(lo)
		hi := min(lo+wholeBlock, (lo/int(l.chunkRows)+1)*int(l.chunkRows), m)
		for r := lo; r < hi; r++ {
			f += tileFlops(c.data, r, m-lo)
		}
		block := l.rowsFrom(int32(lo))[lo:]
		dc.tile(c.params, lo, hi, lo, hi, block, m, la.Mirror{})
		dc.tile(c.params, lo, hi, hi, m, block[hi-lo:], m,
			la.Mirror{Chunks: l.chunks, Per: int(l.chunkRows), Row: hi, Col: lo})
		lo = hi
	}
	dc.releaseBelow(m)
	c.rec.EndFlops(sp, f)
	c.flops += f
}

// wholeTile is CrossTile that also stores the tile's transpose into mirror
// (la.Mirror), unless that is the zero Mirror. A Gaussian tile over dense
// rows is one la.ExpDistTile, whose panels store both from their registers;
// any other is CrossTile and then the mirror from its tile, a column at a
// time.
func (p Params) wholeTile(a *la.Matrix, rows []int, b *la.Matrix, clo, chi int, dst []float64, ld int, mirror la.Mirror) {
	if p.Kind == Gaussian && !a.Sparse() && !b.Sparse() {
		la.ExpDistTile(a, rows, b, clo, chi, -p.Gamma, dst, ld, mirror)
		return
	}
	p.CrossTile(a, rows, b, clo, chi, dst, ld)
	if mirror.Chunks != nil {
		mirror.Store(dst, ld, len(rows), chi-clo)
	}
}

// compactDensity is the least density on its column support, stored entries
// over rows × support width, at which fillWhole evaluates a CSR block over
// its dense copy. BenchmarkRowCache's sparse-whole cases (188 rows of 40
// entries, BENCH_smo.json, -cpu 1/4) put the crossover here: the copy's fill
// took 1.68/1.83 ms against the CSR fill's 2.66/2.54 ms at density 0.05,
// 0.89/0.90 against 2.48/2.86 at 0.1, 0.74/0.71 against 4.81/4.18 at 0.2 and
// 0.29/0.45 against 7.75/6.71 at 0.4. The copy's cost grows with the support
// width, as 1/density, and the CSR fill's does not: at half the density it
// would take about twice as long and lose. 0.05 is the lowest density
// measured to win.
const compactDensity = 0.05

// maxCompactWidth is the widest column support a block is compacted over:
// wholeBlock compacted rows must fit one storage chunk.
const maxCompactWidth = slabChunkLen / wholeBlock

// supports recycles the feature-wide position table compact needs.
var supports = sync.Pool{New: func() any { return new(la.ColumnSupport) }}

// denseCopy is a CSR block copied densely over its column support
// (la.ColumnSupport.Compact) into storage chunks borrowed from the chunk
// pool: part k is one dense matrix over one chunk holding rows
// [k·partRows, (k+1)·partRows) of the block, partRows a multiple of
// wholeBlock. fillWhole also wraps a block it does not copy as the one part
// of a denseCopy without chunks. The zero value holds nothing.
type denseCopy struct {
	rows     int
	partRows int
	parts    []*la.Matrix
	chunks   []*slabChunk
}

// compact copies a into pooled chunks over its column support when a is
// sparse, the support is at most maxCompactWidth wide and a's density on it
// is at least minDensity, and reports whether it did. A declined block takes
// no chunk.
func compact(a *la.Matrix, minDensity float64) (d denseCopy, ok bool) {
	if !a.Sparse() {
		return d, false
	}
	s := supports.Get().(*la.ColumnSupport)
	defer supports.Put(s)
	defer s.Release()
	m, w := a.Rows(), s.Set(a, maxCompactWidth)
	if w == 0 || float64(a.NNZ()) < minDensity*float64(m)*float64(w) {
		return d, false
	}
	d.rows, d.partRows = m, slabChunkLen/(w*wholeBlock)*wholeBlock
	for lo := 0; lo < m; lo += d.partRows {
		ch := slabChunks.Get()
		d.chunks = append(d.chunks, ch)
		d.parts = append(d.parts, s.Compact(a, lo, min(lo+d.partRows, m), ch[:]))
	}
	return d, true
}

// tile sets dst[r*ld + (c−c0)] = K(lo+r, c) over the copy for the rows
// [lo, hi), at most wholeBlock of them, and the columns [c0, c1), and stores
// their transpose into mirror, whose first row and column are c0's and lo's,
// unless it is the zero Mirror: one wholeTile for every part the rows span
// against every part the columns span.
func (d *denseCopy) tile(p Params, lo, hi, c0, c1 int, dst []float64, ld int, mirror la.Mirror) {
	var rows [wholeBlock]int
	for r0 := lo; r0 < hi; {
		pr := r0 / d.partRows
		r1 := min(hi, (pr+1)*d.partRows)
		for k := range r1 - r0 {
			rows[k] = r0 - pr*d.partRows + k
		}
		for cc := c0; cc < c1; {
			pc := cc / d.partRows
			ce := min(c1, (pc+1)*d.partRows)
			mr := mirror
			mr.Row, mr.Col = mirror.Row+cc-c0, mirror.Col+r0-lo
			p.wholeTile(d.parts[pr], rows[:r1-r0], d.parts[pc], cc-pc*d.partRows, ce-pc*d.partRows,
				dst[(r0-lo)*ld+cc-c0:], ld, mr)
			cc = ce
		}
		r0 = r1
	}
}

// releaseBelow gives back to the pool the chunks of the parts whose rows all
// lie before row lo, which no block from lo on reads; releaseBelow(rows)
// gives back every chunk.
func (d *denseCopy) releaseBelow(lo int) {
	for k, ch := range d.chunks {
		if ch != nil && min((k+1)*d.partRows, d.rows) <= lo {
			slabChunks.Put(ch)
			d.chunks[k] = nil
		}
	}
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
