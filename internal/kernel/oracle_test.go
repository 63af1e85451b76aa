package kernel

import (
	"math"

	"casvm/internal/la"
)

// Row is the tests' oracle for every fill in the package: the full kernel
// row K(i, ·), one entry at a time straight through the scalar primitives —
// la.Dot or la.SpDot, and for the Gaussian kernel the norms identity over
// the row norms, Eval's recipe — with row i as the first argument, sharing
// no loop with CrossTile or RowCache. It returns the lazy fill's flop formula
// over all m columns — what a fill with nothing to copy charges.
func (p Params) Row(a *la.Matrix, i int, dst []float64) float64 {
	m := a.Rows()
	nnz := a.Features()
	for j := 0; j < m; j++ {
		var dot float64
		if a.Sparse() {
			ii, iv := a.SparseRow(i)
			ji, jv := a.SparseRow(j)
			nnz = len(ii)
			dot = la.SpDot(ii, iv, ji, jv)
		} else {
			dot = la.Dot(a.DenseRow(i), a.DenseRow(j))
		}
		if p.Kind != Gaussian {
			dst[j] = p.fromDot(dot)
			continue
		}
		d := a.SqNormRow(i) + a.SqNormRow(j) - 2*dot
		if d < 0 {
			d = 0
		}
		dst[j] = math.Exp(-p.Gamma * d)
	}
	return float64(2*nnz*m + m)
}

func allRows(m int) []int {
	rows := make([]int, m)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// column sets dst[i] = K(row i of a, row j of b) for every row of a, the way
// smo.Solver.FillColumn asks for a Dis-SMO column: one CrossTile of a against
// the one row.
func column(p Params, a, b *la.Matrix, j int, dst []float64) {
	p.CrossTile(a, allRows(a.Rows()), b, j, j+1, dst, 1)
}
