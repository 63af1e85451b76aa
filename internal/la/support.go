package la

import "slices"

// ColumnSupport is the column support of a CSR matrix — the sorted union of
// the feature indices its rows store — with the position of each feature in
// it, so rows can be copied densely over the support (Compact). pos[f] is
// 1 + the position of feature f in cols, 0 when no row stores f: the same
// feature-wide int32 table ScatteredRow keeps, and cleared the same way, by
// walking the support (Release), so it is all-zero whenever no support is
// set.
//
// A compacted row holds the CSR row's values at their positions and zeros
// elsewhere, in feature order. Dot products and norms over the compacted
// rows are those of the CSR rows up to rounding: the dropped columns are
// zero in every row. They are not SpDot's bits — Dot sums in its own
// accumulator layout — so a kernel evaluated over the copy is Eval over the
// compacted matrix, not over the CSR one.
//
// The zero value is ready for Set.
type ColumnSupport struct {
	pos  []int32
	cols []int32
}

// Set computes a's column support and returns its width. It gives up once
// the support is wider than maxWidth, and returns 0, leaving no support set;
// a matrix that stores nothing has width 0 too. a must be sparse.
func (s *ColumnSupport) Set(a *Matrix, maxWidth int) int {
	s.Release()
	if cap(s.pos) < a.n {
		s.pos = make([]int32, a.n)
	}
	s.pos = s.pos[:a.n]
	for _, f := range a.idx {
		if s.pos[f] != 0 {
			continue
		}
		if len(s.cols) == maxWidth {
			s.Release()
			return 0
		}
		s.pos[f] = 1
		s.cols = append(s.cols, f)
	}
	slices.Sort(s.cols)
	for k, f := range s.cols {
		s.pos[f] = int32(k) + 1
	}
	return len(s.cols)
}

// Release clears the table and drops the support; the storage stays for the
// next Set.
func (s *ColumnSupport) Release() {
	for _, f := range s.cols {
		s.pos[f] = 0
	}
	s.cols = s.cols[:0]
}

// Compact copies rows [lo, hi) of a densely over the support into dst, which
// must hold (hi−lo)·width values and may hold anything, and returns them as
// a dense matrix over dst. Every row of a must lie on the support.
func (s *ColumnSupport) Compact(a *Matrix, lo, hi int, dst []float64) *Matrix {
	w := len(s.cols)
	dst = dst[:(hi-lo)*w]
	clear(dst)
	for i := lo; i < hi; i++ {
		row := dst[(i-lo)*w:]
		ix, vx := a.SparseRow(i)
		for k, f := range ix {
			row[s.pos[f]-1] = vx[k]
		}
	}
	return NewDense(hi-lo, w, dst)
}
