package la

// Blocked-GEMM tile layer. Kernel matrices are rank-k products in disguise
// — K = f(X·Zᵀ, ‖x‖², ‖z‖²) — so the dominant flops of both training scans
// and batch prediction are blocks of inner products. This file computes
// such blocks with register-blocked microkernels (one row streamed against
// four held rows at a time, each dot 4-way unrolled — a 4×4 blocking of the
// k-loop) so one pass over the streamed rows serves four outputs instead of
// one. On amd64 with AVX2 the four outputs are four YMM accumulators
// (dot4PanelVec, vec_amd64.s); elsewhere the same blocking runs as Go.
//
// Bit-identity contract: every output element equals the corresponding
// scalar kernel's result EXACTLY — Dot4 reproduces Dot's accumulator
// layout and combination order per column, lanes or not.
// The tile engine in internal/kernel leans on this to keep tiled training
// and prediction bit-identical to the row-at-a-time paths it replaces.

// Dot4 computes dst[c] = Dot(x, b_c) for four right-hand vectors sharing
// the left vector x, loading each x element once per group of four
// outputs. All of b0..b3 must have length ≥ len(x); dst must have length
// ≥ 4. Each output is bit-identical to the corresponding Dot call. Where
// the lanes run (vectorKernels) each output is one AVX2 register whose lane
// j is Dot's accumulator s_j; elsewhere dot4Loop runs.
func Dot4(x, b0, b1, b2, b3 []float64, dst []float64) {
	n := len(x)
	panel4(b0[:n], b1, b2, b3, x, 1, dst, 1)
}

// panel4 sets dst[k*ld + c] = Dot(x_k, b[c*n : c*n+n]) for the four vectors
// x0..x3 and each of the w n-float rows of b, n being len(x0): one pass over
// a row of b serves four outputs. It is Dot4 over a run of columns, and
// MulTile's dense×dense path calls it once per four tile rows so the lanes
// sweep every column in one assembly call.
func panel4(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int) {
	n := len(x0)
	x1, x2, x3, b, dst = x1[:n], x2[:n], x3[:n], b[:w*n], dst[:3*ld+w]
	if vectorKernels {
		dot4PanelVec(x0, x1, x2, x3, b, w, dst, ld)
		return
	}
	var tmp [4]float64
	for c := 0; c < w; c++ {
		dot4Loop(b[c*n:c*n+n], x0, x1, x2, x3, tmp[:])
		dst[c], dst[ld+c], dst[2*ld+c], dst[3*ld+c] = tmp[0], tmp[1], tmp[2], tmp[3]
	}
}

// dot4Loop is Dot4's portable loop: Dot's four stride-4 accumulators per
// output, combined (s0+s1)+(s2+s3), then the sequential tail. b0..b3 hold at
// least len(x) floats.
func dot4Loop(x, b0, b1, b2, b3 []float64, dst []float64) {
	n := len(x)
	x = x[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	var a0, a1, a2, a3 float64
	var c0, c1, c2, c3 float64
	var d0, d1, d2, d3 float64
	var e0, e1, e2, e3 float64
	i := 0
	// x elements are read directly (not hoisted into locals): 16 live
	// accumulators already exhaust the XMM file, and re-reading L1-hot x
	// benches faster than spilling four more registers.
	for ; i+4 <= n; i += 4 {
		a0 += x[i] * b0[i]
		a1 += x[i+1] * b0[i+1]
		a2 += x[i+2] * b0[i+2]
		a3 += x[i+3] * b0[i+3]
		c0 += x[i] * b1[i]
		c1 += x[i+1] * b1[i+1]
		c2 += x[i+2] * b1[i+2]
		c3 += x[i+3] * b1[i+3]
		d0 += x[i] * b2[i]
		d1 += x[i+1] * b2[i+1]
		d2 += x[i+2] * b2[i+2]
		d3 += x[i+3] * b2[i+3]
		e0 += x[i] * b3[i]
		e1 += x[i+1] * b3[i+1]
		e2 += x[i+2] * b3[i+2]
		e3 += x[i+3] * b3[i+3]
	}
	s0 := (a0 + a1) + (a2 + a3)
	s1 := (c0 + c1) + (c2 + c3)
	s2 := (d0 + d1) + (d2 + d3)
	s3 := (e0 + e1) + (e2 + e3)
	for ; i < n; i++ {
		xi := x[i]
		s0 += xi * b0[i]
		s1 += xi * b1[i]
		s2 += xi * b2[i]
		s3 += xi * b3[i]
	}
	dst[0], dst[1], dst[2], dst[3] = s0, s1, s2, s3
}

// MulTile computes the inner-product block
//
//	dst[r*ld + (c-clo)] = <a_row(rows[r]), b_row(c)>   for c in [clo, chi)
//
// — a block of X·Zᵀ, the GEMM at the heart of kernel-matrix evaluation.
// a and b may be the same matrix. Each element is bit-identical to the
// scalar primitive the row-at-a-time paths use for that storage pairing:
//
//	dense×dense  → Dot(a_r, b_c)           (via the Dot4 microkernel)
//	sparse×sparse→ SpDot(a_r, b_c)         (via ScatteredRow: each a row
//	                                        scattered once per tile row, one
//	                                        gather per column)
//	sparse×dense → SpDenseDot(a_r, b_c)    (DotVec's arithmetic)
//	dense×sparse → Dot(a_r, densify(b_c))  (each b row densified once per
//	                                        tile column, not per element)
//
// dst must have length ≥ (len(rows)-1)*ld + (chi-clo) and ld ≥ chi-clo.
func MulTile(a *Matrix, rows []int, b *Matrix, clo, chi int, dst []float64, ld int) {
	w := chi - clo
	if w <= 0 || len(rows) == 0 {
		return
	}
	switch {
	case !a.Sparse() && !b.Sparse():
		// Column-outer, 4 a-rows per pass: each b row is streamed once per
		// quad of outputs instead of once per output — a 4× cut in b-side
		// memory traffic, which is what makes large-SV batch predict win.
		// Dot is bitwise symmetric in its arguments (same products, same
		// order), so a panel with the b row as the shared vector equals
		// Dot(a_r, b_c) per row.
		n := b.n
		cols := b.dense[clo*n : chi*n]
		r := 0
		for ; r+4 <= len(rows); r += 4 {
			panel4(a.DenseRow(rows[r])[:n], a.DenseRow(rows[r+1]), a.DenseRow(rows[r+2]),
				a.DenseRow(rows[r+3]), cols, w, dst[r*ld:], ld)
		}
		for ; r < len(rows); r++ {
			x := a.DenseRow(rows[r])
			out := dst[r*ld:]
			for c := clo; c < chi; c++ {
				out[c-clo] = Dot(x, b.DenseRow(c))
			}
		}
	case a.Sparse() && b.Sparse():
		s := scatters.Get().(*ScatteredRow)
		n := max(a.n, b.n)
		for r, ar := range rows {
			ri, rv := a.SparseRow(ar)
			s.Set(n, ri, rv)
			out := dst[r*ld:]
			for c := clo; c < chi; c++ {
				ci, cv := b.SparseRow(c)
				out[c-clo] = s.Dot(ci, cv)
			}
		}
		s.Release()
		scatters.Put(s)
	case a.Sparse(): // sparse × dense
		for r, ar := range rows {
			ri, rv := a.SparseRow(ar)
			out := dst[r*ld:]
			for c := clo; c < chi; c++ {
				out[c-clo] = SpDenseDot(ri, rv, b.DenseRow(c))
			}
		}
	default: // dense × sparse: densify each b column once, 4 a rows per pass
		buf := make([]float64, b.Features())
		var tmp [4]float64
		for c := clo; c < chi; c++ {
			xc := b.RowInto(c, buf)
			o := c - clo
			r := 0
			for ; r+4 <= len(rows); r += 4 {
				Dot4(xc, a.DenseRow(rows[r]), a.DenseRow(rows[r+1]),
					a.DenseRow(rows[r+2]), a.DenseRow(rows[r+3]), tmp[:])
				dst[r*ld+o] = tmp[0]
				dst[(r+1)*ld+o] = tmp[1]
				dst[(r+2)*ld+o] = tmp[2]
				dst[(r+3)*ld+o] = tmp[3]
			}
			for ; r < len(rows); r++ {
				dst[r*ld+o] = Dot(a.DenseRow(rows[r]), xc)
			}
		}
	}
}
