package kernel

import (
	"sync"

	"casvm/internal/la"
)

// Tile engine: blocked evaluation of kernel-matrix blocks. The kernel
// matrix is a rank-k product in disguise — K = f(X·Zᵀ, ‖x‖², ‖z‖²) — so a
// block of K rows or a query×SV panel is one GEMM block plus an
// elementwise finish, not len(rows) independent row scans.
//
// There is one recipe, Params.Eval's: the inner product of the storage
// pairing's scalar dot (la.Dot, la.SpDot, la.SpDenseDot) and, for the
// Gaussian kernel, exp(−γ·la.SqDistOf(‖a‖², ‖b‖², dot)), the norms identity.
// Every entry each fill below writes is that value bit for bit, so a row
// filled lazily, a row of a whole-filled RowCache, a Dis-SMO column
// (CrossRow) and a batch-prediction tile (CrossTile) agree to the last bit.
// The one exception is deliberate: a whole RowCache over a CSR block that
// compacts runs CrossTile over the block's dense copy (compact), so its
// entries are Eval over that compacted matrix bit for bit — dot products and
// norms are invariant under the column permutation, so they are CSR Eval's
// up to rounding. The fills differ only in what they hold and stream:
//
//   - Tile fills listed columns of rows of the training matrix itself, a
//     row at a time against a chunk of columns (la.DotList, or la.SqDistList
//     for the Gaussian: four columns a pass); it is RowCache's lazy fill.
//   - CrossTile fills a contiguous block between two matrices (or one) on
//     la.MulTile's Dot4 panels; it is RowCache's whole fill and batch
//     prediction's tile.
//
// Entries are bitwise symmetric — Dot, SpDot and the sum of the two norms
// commute — so a cache may copy K(j, i) into K(i, j) instead of evaluating
// it.

// Tile fills dsts[r][c] with K(rows[r], c) for every column c listed in
// cols, over the rows of a single training matrix. Entries of dsts outside
// cols are left alone — RowCache has copied them from resident rows. Each
// dsts[r] must have length ≥ a.Rows(). Elementwise results are Eval's bit
// for bit; the returned flop charge is 2·nnz(row)·len(cols) + len(cols) per
// tile row.
func (p Params) Tile(a *la.Matrix, rows []int, dsts [][]float64, cols []int32) float64 {
	n := len(cols)
	if len(rows) == 0 || n == 0 {
		return 0
	}
	if a.Sparse() {
		for base := 0; base < len(rows); base += tileRowBlock {
			end := min(base+tileRowBlock, len(rows))
			p.fillSparse(a, rows[base:end], a, cols, dsts[base:end])
		}
	} else {
		p.tileCols(a, rows, dsts, cols)
	}
	var flops float64
	for _, i := range rows {
		flops += tileFlops(a, i, n)
	}
	return flops
}

// tileFlops is the flop charge of row i of a evaluated against w columns:
// 2·nnz(row)·w + w, nnz counting a CSR row's stored entries and a dense
// row's features.
func tileFlops(a *la.Matrix, i, w int) float64 {
	nnz := a.Features()
	if a.Sparse() {
		ix, _ := a.SparseRow(i)
		nnz = len(ix)
	}
	return float64(2*nnz*w + w)
}

// tileRowBlock bounds how many tile rows have their handles hoisted into
// stack arrays at once; larger tiles process in groups. Hoisting matters:
// re-resolving SparseRow/SqNormRow per element costs more than the dot for
// short rows, which is exactly the single-row fill of a training scan.
const tileRowBlock = 8

// fillChunk is how many kernel elements per tile row a fill computes into a
// stack buffer before finishing them in one batch (one la.ExpScaled call for
// the Gaussian kernel): enough to amortise the call, small enough that a
// sparse block's tileRowBlock buffers (8 KiB) stay in L1.
const fillChunk = 128

// tileCols fills the listed columns of every tile row of a dense matrix, a
// chunk of columns at a time so the chunk's rows stay cache-resident across
// the tile rows: one denseRow into a stack buffer, then a scatter.
func (p Params) tileCols(a *la.Matrix, rows []int, dsts [][]float64, cols []int32) {
	var d [fillChunk]float64
	for lo := 0; lo < len(cols); lo += fillChunk {
		chunk := cols[lo:min(lo+fillChunk, len(cols))]
		out := d[:len(chunk)]
		for r, i := range rows {
			p.denseRow(a, i, a, chunk, out)
			dst := dsts[r]
			for k, j := range chunk {
				dst[j] = out[k]
			}
		}
	}
}

// sparseBlock is the fill state of one block of at most tileRowBlock sparse
// tile rows: each row scattered over the feature axis (la.ScatteredRow), its
// squared norm, its destination. The position tables cost 4 bytes × features
// per row, so blocks are pooled: a fill allocates nothing once tables of the
// feature width exist.
type sparseBlock struct {
	row [tileRowBlock]la.ScatteredRow
	sq  [tileRowBlock]float64
	dst [tileRowBlock][]float64
}

var sparseBlocks = sync.Pool{New: func() any { return new(sparseBlock) }}

// fillSparse is the one sparse×sparse fill loop: dsts[r][c] = K(rows[r] of
// src, c of cols) for every row c of cols that at lists (nil: all of them),
// with len(rows) ≤ tileRowBlock. The reused side — the tile rows — is
// scattered once and every column is then a single gather per row,
// bit-identical to the la.SpDot the scalar paths evaluate (which is bitwise
// symmetric, so which side is scattered does not matter). Tile passes
// src == cols and its column list; CrossRow passes the matrix holding the one
// remote row as src and no list.
func (p Params) fillSparse(src *la.Matrix, rows []int, cols *la.Matrix, at []int32, dsts [][]float64) {
	sb := sparseBlocks.Get().(*sparseBlock)
	width := max(src.Features(), cols.Features())
	for r, i := range rows {
		ix, vx := src.SparseRow(i)
		sb.row[r].Set(width, ix, vx)
		if p.Kind == Gaussian {
			sb.sq[r] = src.SqNormRow(i)
		}
		sb.dst[r] = dsts[r]
	}
	p.sparseCols(sb, len(rows), cols, at)
	for r := range rows {
		sb.row[r].Release()
		sb.dst[r] = nil
	}
	sparseBlocks.Put(sb)
}

// sparseCols fills the columns at lists (every column of cols when at is nil)
// of the block's first n rows, column-outer: each column row is read once for
// all the block's rows.
func (p Params) sparseCols(sb *sparseBlock, n int, cols *la.Matrix, at []int32) {
	rows, dsts := sb.row[:n], sb.dst[:n]
	m := cols.Rows()
	if at != nil {
		m = len(at)
	}
	col := func(k int) int {
		if at != nil {
			return int(at[k])
		}
		return k
	}
	if p.Kind != Gaussian {
		for k := range m {
			j := col(k)
			ji, jv := cols.SparseRow(j)
			for r := range rows {
				dsts[r][j] = p.fromDot(rows[r].Dot(ji, jv))
			}
		}
		return
	}
	var d [tileRowBlock][fillChunk]float64
	for c0 := 0; c0 < m; c0 += fillChunk {
		w := min(fillChunk, m-c0)
		for k := 0; k < w; k++ {
			j := col(c0 + k)
			ji, jv := cols.SparseRow(j)
			nj := cols.SqNormRow(j)
			for r := range rows {
				d[r][k] = la.SqDistOf(sb.sq[r], nj, rows[r].Dot(ji, jv))
			}
		}
		for r := range rows {
			out := d[r][:w]
			la.ExpScaled(out, -p.Gamma)
			for k, v := range out {
				dsts[r][col(c0+k)] = v
			}
		}
	}
}

// CrossTile fills dst[r*ld + (c-clo)] = K(rows[r] of a, c of b) for
// c in [clo, chi), computing the whole block with one la.MulTile call — one
// la.SqDistTile call for the Gaussian kernel — and finishing elementwise.
// Every element is bit-identical to Params.Eval(a, rows[r], b, c). a and b
// may be the same matrix.
//
// dst must have length ≥ (len(rows)-1)*ld + (chi-clo) and ld ≥ chi-clo.
// The returned flop charge follows Row-style accounting per tile row:
// 2·nnz(row)·w + w over the w = chi-clo columns.
func (p Params) CrossTile(a *la.Matrix, rows []int, b *la.Matrix, clo, chi int, dst []float64, ld int) float64 {
	w := chi - clo
	if w <= 0 || len(rows) == 0 {
		return 0
	}
	var flops float64
	if p.Kind == Gaussian {
		la.SqDistTile(a, rows, b, clo, chi, dst, ld)
	} else {
		la.MulTile(a, rows, b, clo, chi, dst, ld)
	}
	for r, i := range rows {
		out := dst[r*ld : r*ld+w]
		if p.Kind != Gaussian {
			for k, dot := range out {
				out[k] = p.fromDot(dot)
			}
		} else if ld != w {
			la.ExpScaled(out, -p.Gamma)
		}
		flops += tileFlops(a, i, w)
	}
	if p.Kind == Gaussian && ld == w {
		// A contiguous tile takes one exp call, however few columns a row has.
		la.ExpScaled(dst[:len(rows)*w], -p.Gamma)
	}
	return flops
}
