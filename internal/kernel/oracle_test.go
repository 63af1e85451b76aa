package kernel

import (
	"math"

	"casvm/internal/la"
)

// Row is the tests' oracle for every fill in the package: the full kernel
// row K(i, ·), one entry at a time straight through the scalar primitives
// (la.SqDist, la.Dot, la.SpDot with the norms identity) with row i as the
// first argument, sharing no loop with Tile, fillSparse or RowCache. It
// returns Tile's flop formula over all m columns — what a fill with nothing
// to copy charges.
func (p Params) Row(a *la.Matrix, i int, dst []float64) float64 {
	m := a.Rows()
	nnz := a.Features()
	for j := 0; j < m; j++ {
		switch {
		case !a.Sparse() && p.Kind == Gaussian:
			dst[j] = math.Exp(-p.Gamma * la.SqDist(a.DenseRow(i), a.DenseRow(j)))
		case !a.Sparse():
			dst[j] = p.fromDot(la.Dot(a.DenseRow(i), a.DenseRow(j)), 0)
		default:
			ii, iv := a.SparseRow(i)
			ji, jv := a.SparseRow(j)
			nnz = len(ii)
			dot := la.SpDot(ii, iv, ji, jv)
			if p.Kind != Gaussian {
				dst[j] = p.fromDot(dot, 0)
				continue
			}
			d := a.SqNormRow(i) + a.SqNormRow(j) - 2*dot
			if d < 0 {
				d = 0
			}
			dst[j] = math.Exp(-p.Gamma * d)
		}
	}
	return float64(2*nnz*m + m)
}

// allCols lists every column of an m-row matrix: the column list of a fill
// that copies nothing.
func allCols(m int) []int32 {
	cols := make([]int32, m)
	for j := range cols {
		cols[j] = int32(j)
	}
	return cols
}
