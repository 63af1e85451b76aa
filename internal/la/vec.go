// Package la provides the dense and sparse linear-algebra primitives the
// SVM solvers and partitioners are built on: vector kernels (dot, axpy,
// squared distance) and a row-major sample matrix that can hold either dense
// or CSR-encoded sparse rows behind one interface.
//
// Everything here is deliberately allocation-free on the hot paths; the SMO
// inner loop spends nearly all of its time in Dot and SqDist.
//
// ExpScaled and SqDistRows, the Gaussian kernel's batched finish and
// distance fill, UpdateScan, the SMO iteration tail, and Dot4 with
// MulTile's dense panels, the inner products of batch prediction, run four
// lanes wide in amd64 assembly (vec_amd64.s) when the CPU has AVX2 and FMA,
// and as the portable loops otherwise; both paths give the scalar results
// bit for bit.
package la

import "math"

// Dot returns the inner product of a and b. The slices must have equal
// length; only the common prefix is used if they do not, which matches the
// semantics of zero-padding the shorter vector.
//
// Dot is also the repository benchmark's calibration loop: bench/measure.go
// times it over 4096 × 1000 elements and restates every gated timing against
// its fixed reference speed, so a faster Dot would inflate every workload's
// figures. It keeps this scalar body and its speed; the lanes go under Dot4
// and MulTile, which reproduce it bit for bit, and SqNorm, DotVec and
// MulTile's leftover rows stay on it.
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

// SqDist returns the squared Euclidean distance ||a-b||². It is the recipe
// SqDistRows's lanes replay: four accumulators over the common prefix,
// combined (s0+s1)+(s2+s3), then the sequential tail.
func SqDist(a, b []float64) float64 {
	n := min(len(a), len(b))
	// Consuming both prefixes four at a time lets the compiler drop every
	// bounds check in the loop.
	x, y := a[:n], b[:n]
	var s0, s1, s2, s3 float64
	for len(x) >= 4 && len(y) >= 4 {
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		x, y = x[4:], y[4:]
	}
	s := (s0 + s1) + (s2 + s3)
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	// Tails when one vector is longer than the other.
	for _, v := range a[n:] {
		s += v * v
	}
	for _, v := range b[n:] {
		s += v * v
	}
	return s
}

// SqDistRows sets out[k] = SqDist(x, m.DenseRow(int(rows[k]))) for every k,
// or out[k] = SqDist(x, m.DenseRow(k)) for every k of out when rows is nil,
// bit for bit. m must be dense.
func SqDistRows(x []float64, m *Matrix, rows []int32, out []float64) {
	if rows != nil {
		out = out[:len(rows)]
	}
	k := 0
	if vectorKernels && !m.sparse && len(x) == m.n {
		k = sqDistRowsVec(x, m.dense, m.m, rows, out)
	}
	// The rest, if any: a length the lanes do not take, or from a row index
	// out of range, where DenseRow panics.
	for ; k < len(out); k++ {
		i := k
		if rows != nil {
			i = int(rows[k])
		}
		out[k] = SqDist(x, m.DenseRow(i))
	}
}

// ExpScaled sets x[i] = math.Exp(s*x[i]) for every i, bit for bit — the
// Gaussian kernel's finish over a batch of distances (s = −γ).
func ExpScaled(x []float64, s float64) {
	i := 0
	for vectorKernels {
		i += expScaledVec(x[i:], s)
		if len(x)-i < 4 {
			break
		}
		// A lane of this group is outside [−708, 709] or not finite:
		// math.Exp's own branches handle it.
		for k := i; k < i+4; k++ {
			x[k] = math.Exp(s * x[k])
		}
		i += 4
	}
	for ; i < len(x); i++ {
		x[i] = math.Exp(s * x[i])
	}
}

// Extremes is an SMO working-set scan's result: BHigh, the minimum of f over
// I_high, at its lowest index IHigh, and BLow, the maximum over I_low, at its
// lowest index ILow. An empty set leaves +Inf (−Inf) at index −1.
type Extremes struct {
	BHigh, BLow float64
	IHigh, ILow int
}

// NoExtremes is the scan of nothing: both sets empty.
func NoExtremes() Extremes {
	return Extremes{BHigh: math.Inf(1), IHigh: -1, BLow: math.Inf(-1), ILow: -1}
}

// UpdateScan is the SMO iteration tail in one pass over f: eqn (5)'s update
// f[k] = (f[k] + ch·rh[k]) + cl·rl[k], the arithmetic of Axpy(ch, rh, f)
// followed by Axpy(cl, rl, f), and the next iteration's scan of the updated
// f. outHigh and outLow mark the sets, 0 for a member and +Inf otherwise: k
// is a candidate for BHigh when f[k] + outHigh[k] < BHigh and for BLow when
// f[k] − outLow[k] > BLow, so a non-member never wins and the first of equal
// extremes does. rh, rl, outHigh and outLow must hold at least len(f) values.
//
// The lanes give the portable loop's f and Extremes bit for bit: each lane
// keeps its own candidates under the same strict comparisons (a member's
// test is f[k] < best, whatever else the lane saw), and the lane reduction
// takes the lower index of equal extremes.
func UpdateScan(f, rh, rl, outHigh, outLow []float64, ch, cl float64) Extremes {
	n := len(f)
	rh, rl, outHigh, outLow = rh[:n], rl[:n], outHigh[:n], outLow[:n]
	e, k := NoExtremes(), 0
	if vectorKernels && n >= 4 {
		var l laneExtremes
		updateScanVec(f, rh, rl, outHigh, outLow, ch, cl, &l)
		for j := range l.bHigh {
			if v, i := l.bHigh[j], int(l.iHigh[j]); v < e.BHigh || v == e.BHigh && i < e.IHigh {
				e.BHigh, e.IHigh = v, i
			}
			if v, i := l.bLow[j], int(l.iLow[j]); v > e.BLow || v == e.BLow && i < e.ILow {
				e.BLow, e.ILow = v, i
			}
		}
		k = n &^ 3
	}
	return updateScanLoop(f, rh, rl, outHigh, outLow, ch, cl, k, e)
}

// laneExtremes is what updateScanVec leaves: the candidates of its two
// groups of four lanes, the first group's in [0:4].
type laneExtremes struct {
	bHigh [8]float64
	iHigh [8]int64
	bLow  [8]float64
	iLow  [8]int64
}

// updateScanLoop is UpdateScan's portable loop over f[from:], continuing the
// scan from e: the whole pass without the lanes, their len%4 tail with them.
func updateScanLoop(f, rh, rl, outHigh, outLow []float64, ch, cl float64, from int, e Extremes) Extremes {
	n := len(f)
	f, rh, rl, outHigh, outLow = f[from:n], rh[from:n], rl[from:n], outHigh[from:n], outLow[from:n]
	for k, v := range f {
		v += ch * rh[k]
		v += cl * rl[k]
		f[k] = v
		if v+outHigh[k] < e.BHigh {
			e.BHigh, e.IHigh = v, from+k
		}
		if v-outLow[k] > e.BLow {
			e.BLow, e.ILow = v, from+k
		}
	}
	return e
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
