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
// Two flavors exist because the repo has two bit-distinct row-at-a-time
// paths and the golden E2E hashes pin both:
//
//   - Tile is the training-scan recipe (dense Gaussian goes through
//     la.SqDist, not the norms identity), over a list of columns of the
//     training matrix itself. It is RowCache's one fill.
//   - CrossTile matches Params.Eval elementwise (cross-matrix Gaussian
//     always uses the norms identity) and feeds batch prediction.
//
// Every element keeps the exact summation order of the scalar call it
// replaces, so results are bit-identical at every tile shape; the tile only
// changes the memory access pattern.

// Tile fills dsts[r][c] with K(rows[r], c) for every column c listed in
// cols, over the rows of a single training matrix, streaming each column row
// once for all tile rows (a row-at-a-time fill streams the matrix once per
// row). Entries of dsts outside cols are left alone — RowCache has copied
// them from resident rows. Each dsts[r] must have length ≥ a.Rows().
// Elementwise results are bit-identical to the scalar recipes (la.SqDist,
// la.Dot, la.SpDot with the norms identity); the returned flop charge is
// 2·nnz(row)·len(cols) + len(cols) per tile row.
func (p Params) Tile(a *la.Matrix, rows []int, dsts [][]float64, cols []int32) float64 {
	n := len(cols)
	if len(rows) == 0 || n == 0 {
		return 0
	}
	if p.Kind == Gaussian {
		a.EnsureNorms() // fillSparse reads the row norms
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
		nnz := a.Features()
		if a.Sparse() {
			ix, _ := a.SparseRow(i)
			nnz = len(ix)
		}
		flops += float64(2*nnz*n + n)
	}
	return flops
}

// tileRowBlock bounds how many tile rows have their handles hoisted into
// stack arrays at once; larger tiles process in groups. Hoisting matters:
// re-resolving SparseRow/SqNormRow per element costs more than the dot for
// short rows, which is exactly the single-row fill of a training scan.
const tileRowBlock = 8

// fillChunk is how many Gaussian kernel elements per tile row a fill
// computes as distances into a stack buffer before finishing them with one
// la.ExpScaled call: enough to amortise the call, small enough that a
// sparse block's tileRowBlock buffers (8 KiB) stay in L1.
const fillChunk = 128

// tileCols fills the listed columns of every tile row of a dense matrix. The
// column row j is loaded once and evaluated against all tile rows
// (column-outer order; the Gaussian kernel goes a chunk of columns at a
// time), with the tile row as the first argument of the dot/distance
// primitive — which, both being bitwise symmetric, is the value the column's
// own row holds at the tile row's index.
func (p Params) tileCols(a *la.Matrix, rows []int, dsts [][]float64, cols []int32) {
	for base := 0; base < len(rows); base += tileRowBlock {
		n := len(rows) - base
		if n > tileRowBlock {
			n = tileRowBlock
		}
		p.tileColsBlock(a, rows[base:base+n], dsts[base:base+n], cols)
	}
}

func (p Params) tileColsBlock(a *la.Matrix, rows []int, dsts [][]float64, cols []int32) {
	if p.Kind == Gaussian {
		// A chunk of columns at a time, so its rows stay cache-resident
		// across the tile rows: distances into d, one batched exp, scatter.
		var d [fillChunk]float64
		for lo := 0; lo < len(cols); lo += fillChunk {
			chunk := cols[lo:min(lo+fillChunk, len(cols))]
			out := d[:len(chunk)]
			for r, i := range rows {
				la.SqDistRows(a.DenseRow(i), a, chunk, out)
				la.ExpScaled(out, -p.Gamma)
				dst := dsts[r]
				for k, j := range chunk {
					dst[j] = out[k]
				}
			}
		}
		return
	}
	var xr [tileRowBlock][]float64
	for r, i := range rows {
		xr[r] = a.DenseRow(i)
	}
	for _, j := range cols {
		xj := a.DenseRow(int(j))
		for r := range rows {
			dsts[r][j] = p.fromDot(la.Dot(xr[r], xj), 0)
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
// remote row as src and no list. Gaussian callers have ensured norms on both
// matrices.
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
// of the block's first n rows, column-outer like tileCols.
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
				dsts[r][j] = p.fromDot(rows[r].Dot(ji, jv), 0)
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
				v := sb.sq[r] + nj - 2*rows[r].Dot(ji, jv)
				if v < 0 {
					v = 0
				}
				d[r][k] = v
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
// c in [clo, chi), computing the whole inner-product block with one
// la.MulTile call and finishing elementwise. Every element is bit-identical
// to Params.Eval(a, rows[r], b, c) — the cross-matrix Gaussian path always
// goes through the norms identity, like Eval. a and b may be the same
// matrix provided norms are cached (CrossTile ensures them for Gaussian).
//
// dst must have length ≥ (len(rows)-1)*ld + (chi-clo) and ld ≥ chi-clo.
// The returned flop charge follows Row-style accounting per tile row:
// 2·nnz(row)·w + w over the w = chi-clo columns.
func (p Params) CrossTile(a *la.Matrix, rows []int, b *la.Matrix, clo, chi int, dst []float64, ld int) float64 {
	w := chi - clo
	if w <= 0 || len(rows) == 0 {
		return 0
	}
	if p.Kind == Gaussian {
		a.EnsureNorms()
		b.EnsureNorms()
	}
	la.MulTile(a, rows, b, clo, chi, dst, ld)
	var flops float64
	for r, i := range rows {
		out := dst[r*ld : r*ld+w]
		if p.Kind == Gaussian {
			ni := a.SqNormRow(i)
			for c := clo; c < chi; c++ {
				d := ni + b.SqNormRow(c) - 2*out[c-clo]
				if d < 0 {
					d = 0
				}
				out[c-clo] = d
			}
			if ld != w {
				la.ExpScaled(out, -p.Gamma)
			}
		} else {
			for k, dot := range out {
				out[k] = p.fromDot(dot, 0)
			}
		}
		if a.Sparse() {
			ix, _ := a.SparseRow(i)
			flops += float64(2*len(ix)*w + w)
		} else {
			flops += float64(2*a.Features()*w + w)
		}
	}
	if p.Kind == Gaussian && ld == w {
		// A contiguous tile takes one exp call, however few columns a row has.
		la.ExpScaled(dst[:len(rows)*w], -p.Gamma)
	}
	return flops
}
