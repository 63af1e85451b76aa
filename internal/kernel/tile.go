package kernel

import "casvm/internal/la"

// Tile engine: blocked evaluation of kernel-matrix blocks. The kernel
// matrix is a rank-k product in disguise — K = f(X·Zᵀ, ‖x‖², ‖z‖²) — so a
// block of K rows, a kernel column or a query×SV panel is one GEMM block plus
// an elementwise finish, not len(rows) independent row scans.
//
// There is one recipe, Params.Eval's: the inner product of the storage
// pairing's scalar dot (la.Dot, la.SpDot, la.SpDenseDot) and, for the
// Gaussian kernel, exp(−γ·la.SqDistOf(‖a‖², ‖b‖², dot)), the norms identity.
// There is one fill, CrossTile, over la.MulTile (la.SqDistTile for the
// Gaussian), and every entry it writes is that value bit for bit, so a row
// filled lazily, a row of a whole-filled RowCache, a Dis-SMO column and a
// batch-prediction tile agree to the last bit. The whole fill's Gaussian
// tiles over dense rows take la.ExpDistTile instead, CrossTile's block with
// the exps taken and the transpose stored in the distance panels, the same
// value bit for bit (wholeTile). The one exception is
// deliberate: a whole RowCache over a CSR block that compacts runs CrossTile
// over the block's dense copy (compact), so its entries are Eval over that
// compacted matrix bit for bit — dot products and norms are invariant under
// the column permutation, so they are CSR Eval's up to rounding. The callers
// differ only in the shape of the tile they ask for:
//
//   - RowCache's whole fill asks for blocks of rows against the columns from
//     the block on (Dot4 panels), each column's entries also stored into
//     that column's row, batch prediction for queries against support
//     vectors.
//   - RowCache's lazy fill and smo.Solver.FillColumn ask for one column: the
//     listed rows against one row, into contiguous storage. A dense tile of
//     that shape is one la.MulTile pass of the one row against the listed
//     rows, four a pass where the lanes run, with the Gaussian's distance
//     finished in the lanes too; a sparse one scatters the one row and
//     gathers the listed ones. The lazy fill asks for K(c, i) where it
//     wants K(i, c), which is exact because entries are bitwise symmetric.
//
// Entries are bitwise symmetric — Dot, SpDot and the sum of the two norms
// commute — so a cache may copy K(j, i) into K(i, j) instead of evaluating
// it, and evaluate K(j, i) where it needs K(i, j) (TestKernelBitwiseSymmetric).
//
// The callers charge the flops: CrossTile does not count them.

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

// CrossTile fills dst[r*ld + (c-clo)] = K(rows[r] of a, c of b) for
// c in [clo, chi), computing the whole block with one la.MulTile call — one
// la.SqDistTile call for the Gaussian kernel — and finishing elementwise.
// Every element is bit-identical to Params.Eval(a, rows[r], b, c). a and b
// may be the same matrix.
//
// dst must have length ≥ (len(rows)-1)*ld + (chi-clo) and ld ≥ chi-clo.
func (p Params) CrossTile(a *la.Matrix, rows []int, b *la.Matrix, clo, chi int, dst []float64, ld int) {
	w := chi - clo
	if w <= 0 || len(rows) == 0 {
		return
	}
	if p.Kind == Gaussian {
		la.SqDistTile(a, rows, b, clo, chi, dst, ld)
	} else {
		la.MulTile(a, rows, b, clo, chi, dst, ld)
	}
	if p.Kind == Gaussian && ld == w {
		// A contiguous tile takes one exp call, however few columns a row has.
		la.ExpScaled(dst[:len(rows)*w], -p.Gamma)
		return
	}
	for r := range rows {
		out := dst[r*ld : r*ld+w]
		if p.Kind == Gaussian {
			la.ExpScaled(out, -p.Gamma)
			continue
		}
		for k, dot := range out {
			out[k] = p.fromDot(dot)
		}
	}
}
