package la

import (
	"fmt"
	"math"
)

// Matrix is a row-major collection of m feature vectors in R^n. It stores
// rows either densely (one flat []float64) or sparsely (CSR). All SVM
// training code accesses samples through this type, so dense and sparse
// datasets flow through identical solver code.
//
// The zero value is an empty dense matrix with zero features.
type Matrix struct {
	n      int // features per row
	m      int // rows
	sparse bool

	// dense storage: row i is dense[i*n : (i+1)*n].
	dense []float64

	// CSR storage: row i has indices idx[rowptr[i]:rowptr[i+1]] (sorted,
	// strictly increasing) and matching values in val.
	rowptr []int32
	idx    []int32
	val    []float64

	// sqnorm caches ||row_i||² for Gaussian-kernel distance evaluation;
	// computed lazily by EnsureNorms.
	sqnorm []float64
}

// NewDense wraps the given flat row-major data (length m*n) as a dense
// matrix. The slice is retained, not copied.
func NewDense(m, n int, data []float64) *Matrix {
	if len(data) != m*n {
		panic(fmt.Sprintf("la: NewDense m*n=%d but len(data)=%d", m*n, len(data)))
	}
	return &Matrix{n: n, m: m, dense: data}
}

// NewSparse wraps CSR data as a sparse matrix. rowptr must have length m+1
// with rowptr[0]==0 and rowptr[m]==len(idx)==len(val). Indices within a row
// must be sorted and < n. The slices are retained, not copied.
func NewSparse(m, n int, rowptr, idx []int32, val []float64) *Matrix {
	if len(rowptr) != m+1 {
		panic(fmt.Sprintf("la: NewSparse len(rowptr)=%d want %d", len(rowptr), m+1))
	}
	if int(rowptr[m]) != len(idx) || len(idx) != len(val) {
		panic("la: NewSparse rowptr/idx/val disagree")
	}
	return &Matrix{n: n, m: m, sparse: true, rowptr: rowptr, idx: idx, val: val}
}

// Zeros returns an m×n dense matrix of zeros.
func Zeros(m, n int) *Matrix { return NewDense(m, n, make([]float64, m*n)) }

// Rows returns the number of samples.
func (a *Matrix) Rows() int { return a.m }

// Features returns the dimensionality n.
func (a *Matrix) Features() int { return a.n }

// Sparse reports whether the matrix uses CSR storage.
func (a *Matrix) Sparse() bool { return a.sparse }

// NNZ returns the total number of stored (nonzero for sparse, all for
// dense) entries.
func (a *Matrix) NNZ() int {
	if a.sparse {
		return len(a.val)
	}
	return a.m * a.n
}

// DenseRow returns row i for a dense matrix; it panics on sparse matrices.
// The returned slice aliases the matrix storage.
func (a *Matrix) DenseRow(i int) []float64 {
	if a.sparse {
		panic("la: DenseRow on sparse matrix")
	}
	return a.dense[i*a.n : (i+1)*a.n]
}

// SparseRow returns the (indices, values) of row i for a sparse matrix; it
// panics on dense matrices. The slices alias the matrix storage.
func (a *Matrix) SparseRow(i int) ([]int32, []float64) {
	if !a.sparse {
		panic("la: SparseRow on dense matrix")
	}
	return a.idx[a.rowptr[i]:a.rowptr[i+1]], a.val[a.rowptr[i]:a.rowptr[i+1]]
}

// RowInto copies row i into the dense buffer dst (length ≥ n) and returns
// dst[:n]. Works for both storage kinds.
func (a *Matrix) RowInto(i int, dst []float64) []float64 {
	dst = dst[:a.n]
	if !a.sparse {
		copy(dst, a.DenseRow(i))
		return dst
	}
	Fill(dst, 0)
	ix, vx := a.SparseRow(i)
	for k, j := range ix {
		dst[j] = vx[k]
	}
	return dst
}

// At returns element (i, j).
func (a *Matrix) At(i, j int) float64 {
	if !a.sparse {
		return a.dense[i*a.n+j]
	}
	ix, vx := a.SparseRow(i)
	for k, jj := range ix {
		if int(jj) == j {
			return vx[k]
		}
		if int(jj) > j {
			break
		}
	}
	return 0
}

// EnsureNorms computes and caches the squared norm of every row, the norms
// every squared distance (SqDistOf) takes. It is idempotent.
func (a *Matrix) EnsureNorms() {
	if a.sqnorm == nil {
		a.EnsureNormsInto(make([]float64, a.m))
	}
}

// EnsureNormsInto is EnsureNorms into caller-owned storage: when a has no
// norm cache, the norms go to norms[:a.Rows()], which becomes its cache, so
// the caller must not reuse norms while a is in use. A matrix that holds its
// cache keeps it.
func (a *Matrix) EnsureNormsInto(norms []float64) {
	if a.sqnorm != nil {
		return
	}
	sq := norms[:a.m]
	for i := 0; i < a.m; i++ {
		if a.sparse {
			_, vx := a.SparseRow(i)
			sq[i] = SpSqNorm(vx)
		} else {
			sq[i] = SqNorm(a.DenseRow(i))
		}
	}
	a.sqnorm = sq
}

// SqNormRow returns ‖row_i‖², computing the norm cache on first use.
func (a *Matrix) SqNormRow(i int) float64 {
	a.EnsureNorms()
	return a.sqnorm[i]
}

// DotVec returns <row_i, x> where x is dense (length n).
func (a *Matrix) DotVec(i int, x []float64) float64 {
	if a.sparse {
		ix, vx := a.SparseRow(i)
		return SpDenseDot(ix, vx, x)
	}
	return Dot(a.DenseRow(i), x)
}

// Subset returns a new matrix containing the given rows in order. Storage
// kind is preserved; the result owns fresh slices. When a holds its norm
// cache the subset inherits the rows' norms, which are exactly what its own
// EnsureNorms would compute; otherwise its cache stays lazy.
func (a *Matrix) Subset(rows []int) *Matrix {
	out := a.subsetRows(rows)
	if a.sqnorm != nil {
		out.sqnorm = make([]float64, len(rows))
		for k, r := range rows {
			out.sqnorm[k] = a.sqnorm[r]
		}
	}
	return out
}

// RowRange returns rows lo..hi−1 of a as a view: dense rows are a subslice
// of a's storage, CSR rows a rebased rowptr over subslices of a's indices and
// values, so the view holds exactly what Subset of those rows would, without
// copying a row. The view shares the rows with a and must not be written
// through. When a holds its norm cache the view reads that cache's range;
// otherwise its own EnsureNorms fills a cache of its own, never a's.
func (a *Matrix) RowRange(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > a.m {
		panic(fmt.Sprintf("la: RowRange [%d, %d) of %d rows", lo, hi, a.m))
	}
	var out *Matrix
	if a.sparse {
		start, end := a.rowptr[lo], a.rowptr[hi]
		rp := make([]int32, hi-lo+1)
		for k := range rp {
			rp[k] = a.rowptr[lo+k] - start
		}
		out = NewSparse(hi-lo, a.n, rp, a.idx[start:end:end], a.val[start:end:end])
	} else {
		out = NewDense(hi-lo, a.n, a.dense[lo*a.n:hi*a.n:hi*a.n])
	}
	if a.sqnorm != nil {
		out.sqnorm = a.sqnorm[lo:hi:hi]
	}
	return out
}

// subsetRows is Subset's copy of the rows, without the norm cache.
func (a *Matrix) subsetRows(rows []int) *Matrix {
	if !a.sparse {
		out := make([]float64, len(rows)*a.n)
		for k, r := range rows {
			copy(out[k*a.n:(k+1)*a.n], a.DenseRow(r))
		}
		return NewDense(len(rows), a.n, out)
	}
	nnz := 0
	for _, r := range rows {
		nnz += int(a.rowptr[r+1] - a.rowptr[r])
	}
	rp := make([]int32, len(rows)+1)
	ix := make([]int32, 0, nnz)
	vx := make([]float64, 0, nnz)
	for k, r := range rows {
		ri, rv := a.SparseRow(r)
		ix = append(ix, ri...)
		vx = append(vx, rv...)
		rp[k+1] = int32(len(ix))
	}
	return NewSparse(len(rows), a.n, rp, ix, vx)
}

// Concat returns a new matrix holding the rows of each part in turn, copied
// once into storage sized for all of them. The parts must share the first
// one's feature count and storage kind; there must be at least one.
func Concat(parts ...*Matrix) *Matrix {
	first := parts[0]
	m, nnz := 0, 0
	for _, p := range parts {
		if p.n != first.n {
			panic(fmt.Sprintf("la: Concat feature mismatch %d vs %d", first.n, p.n))
		}
		if p.sparse != first.sparse {
			panic("la: Concat mixes dense and sparse")
		}
		m += p.m
		nnz += p.NNZ()
	}
	if !first.sparse {
		out := make([]float64, 0, nnz)
		for _, p := range parts {
			out = append(out, p.dense...)
		}
		return NewDense(m, first.n, out)
	}
	rp := make([]int32, 1, m+1)
	ix := make([]int32, 0, nnz)
	vx := make([]float64, 0, nnz)
	for _, p := range parts {
		off := int32(len(ix))
		for _, end := range p.rowptr[1:] {
			rp = append(rp, off+end)
		}
		ix = append(ix, p.idx...)
		vx = append(vx, p.val...)
	}
	return NewSparse(m, first.n, rp, ix, vx)
}

// Mean computes the column-wise mean of the given rows (all rows when rows
// is nil) into a dense vector of length n.
func (a *Matrix) Mean(rows []int) []float64 {
	mean := make([]float64, a.n)
	count := 0
	add := func(i int) {
		if a.sparse {
			ix, vx := a.SparseRow(i)
			for k, j := range ix {
				mean[j] += vx[k]
			}
		} else {
			r := a.DenseRow(i)
			for j, v := range r {
				mean[j] += v
			}
		}
		count++
	}
	if rows == nil {
		for i := 0; i < a.m; i++ {
			add(i)
		}
	} else {
		for _, i := range rows {
			add(i)
		}
	}
	if count > 0 {
		Scale(1/float64(count), mean)
	}
	return mean
}

// Equal reports whether two matrices hold identical values (including
// storage kind, dimension, and entries within tolerance tol).
func Equal(a, b *Matrix, tol float64) bool {
	if a.m != b.m || a.n != b.n {
		return false
	}
	for i := 0; i < a.m; i++ {
		for j := 0; j < a.n; j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}
