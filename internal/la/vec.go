// Package la provides the dense and sparse linear-algebra primitives the
// SVM solvers and partitioners are built on: vector kernels (dot, axpy,
// squared distance) and a row-major sample matrix that can hold either dense
// or CSR-encoded sparse rows behind one interface.
//
// Everything here is deliberately allocation-free on the hot paths; the SMO
// inner loop spends nearly all of its time in Dot and SqDist.
package la

// Dot returns the inner product of a and b. The slices must have equal
// length; only the common prefix is used if they do not, which matches the
// semantics of zero-padding the shorter vector.
func Dot(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a = a[:n]
	b = b[:n:n]
	// Unrolled by 4 with independent accumulators: the Go compiler does
	// not auto-vectorize, and four parallel dependency chains let the CPU
	// overlap the multiply-adds instead of serialising on one sum.
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// SqDist returns the squared Euclidean distance ||a-b||².
func SqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	// Tails when one vector is longer than the other.
	for ; i < len(a); i++ {
		s += a[i] * a[i]
	}
	for i = n; i < len(b); i++ {
		s += b[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place. Elementwise updates are
// independent, so the 4-way unroll changes no rounding — only loop
// overhead and bounds checks.
func Axpy(alpha float64, x, y []float64) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	x = x[:n]
	y = y[:n:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// SqNorm returns ||x||².
func SqNorm(x []float64) float64 { return Dot(x, x) }

// SpDot returns the inner product of two sparse vectors given as sorted
// (index, value) pairs. Sparse SVM rows usually share long aligned index
// runs (dense-ish feature blocks), so the merge loop peels 4 aligned
// matches at a time into independent accumulators before falling back to
// the two-pointer step. It is the single-pair primitive; a fill that reuses
// one row against many goes through ScatteredRow, whose result is this
// function's bit for bit.
func SpDot(ai []int32, av []float64, bi []int32, bv []float64) float64 {
	na, nb := len(ai), len(bi)
	var s0, s1, s2, s3 float64
	i, j := 0, 0
	for i < na && j < nb {
		// Aligned-run fast path: 4 consecutive matching indices.
		for i+4 <= na && j+4 <= nb &&
			ai[i] == bi[j] && ai[i+1] == bi[j+1] &&
			ai[i+2] == bi[j+2] && ai[i+3] == bi[j+3] {
			s0 += av[i] * bv[j]
			s1 += av[i+1] * bv[j+1]
			s2 += av[i+2] * bv[j+2]
			s3 += av[i+3] * bv[j+3]
			i += 4
			j += 4
		}
		if i >= na || j >= nb {
			break
		}
		switch {
		case ai[i] == bi[j]:
			s0 += av[i] * bv[j]
			i++
			j++
		case ai[i] < bi[j]:
			i++
		default:
			j++
		}
	}
	return (s0 + s1) + (s2 + s3)
}

// SpDenseDot returns the inner product of a sparse vector with a dense one.
// Indices beyond len(d) are ignored.
func SpDenseDot(ai []int32, av []float64, d []float64) float64 {
	var s float64
	for k, idx := range ai {
		if int(idx) < len(d) {
			s += av[k] * d[idx]
		}
	}
	return s
}

// SpSqNorm returns ||v||² of a sparse vector.
func SpSqNorm(av []float64) float64 {
	var s float64
	for _, v := range av {
		s += v * v
	}
	return s
}
