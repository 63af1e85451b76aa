package la

import (
	"math"
	"sync"
)

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
	panel4(b0[:n], b1, b2, b3, x, 1, dst, 1, nil, nil)
}

// panel4 sets dst[k*ld + c] = Dot(x_k, b[c*n : c*n+n]) for the four vectors
// x0..x3 and each of the w n-float rows of b, n being len(x0): one pass over
// a row of b serves four outputs. When bn is not empty each output is
// finished in the same pass as SqDistOf(xn[k], bn[c], dot), x_k's and row
// c's squared norms. It is Dot4 over a run of columns, and MulTile's and
// SqDistTile's dense×dense paths call it once per four tile rows so the
// lanes sweep every column in one assembly call.
func panel4(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int, xn, bn []float64) {
	n := len(x0)
	x1, x2, x3, b, dst = x1[:n], x2[:n], x3[:n], b[:w*n], dst[:3*ld+w]
	if len(bn) > 0 {
		xn, bn = xn[:4], bn[:w]
	}
	if vectorKernels {
		dot4PanelVec(x0, x1, x2, x3, b, w, dst, ld, xn, bn)
		return
	}
	var tmp [4]float64
	for c := 0; c < w; c++ {
		dot4Loop(b[c*n:c*n+n], x0, x1, x2, x3, tmp[:])
		if len(bn) > 0 {
			for k, dot := range tmp {
				tmp[k] = SqDistOf(xn[k], bn[c], dot)
			}
		}
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
//	dense×dense  → Dot(a_r, b_c)           (via the Dot4 microkernel, and
//	                                        dotList for the last len%4 rows)
//	sparse×sparse→ SpDot(a_r, b_c)         (via ScatteredRow: the side used
//	                                        more often scattered once per
//	                                        row, one gather per element)
//	sparse×dense → SpDenseDot(a_r, b_c)    (DotVec's arithmetic; one pass
//	                                        over a_r per 4 columns, each
//	                                        its own chain: spDenseDot4)
//	dense×sparse → Dot(a_r, densify(b_c))  (each b row densified once per
//	                                        tile column, not per element)
//
// A dense×dense tile of one column into contiguous dst (chi-clo == 1,
// ld == 1) — a kernel column, a lazy fill's listed rows against one row, a
// one-query prediction block — is one dotList pass of the b row against the listed a rows, four rows per
// pass where the lanes run. Dot is bitwise symmetric in its operands (the
// same products, in the same order), so every element is still Dot(a_r,
// b_c). A row index outside a stops the lanes and panics in DenseRow, as in
// the panels.
//
// dst must have length ≥ (len(rows)-1)*ld + (chi-clo) and ld ≥ chi-clo.
func MulTile(a *Matrix, rows []int, b *Matrix, clo, chi int, dst []float64, ld int) {
	w := chi - clo
	if w <= 0 || len(rows) == 0 {
		return
	}
	switch {
	case oneColumn(a, b, w, ld):
		dotList(b.DenseRow(clo), a, 0, rows, dst[:len(rows)], nil, 0)
	case !a.Sparse() && !b.Sparse():
		denseTile(a, rows, b, clo, chi, dst, ld, false)
	case a.Sparse() && b.Sparse():
		// Scatter the side whose rows are each reused more: SpDot is
		// bitwise symmetric, so gathering a rows against a scattered b row
		// gives the same element.
		s := scatters.Get().(*ScatteredRow)
		n := max(a.n, b.n)
		if len(rows) > w {
			for c := clo; c < chi; c++ {
				ci, cv := b.SparseRow(c)
				s.Set(n, ci, cv)
				for r, ar := range rows {
					ri, rv := a.SparseRow(ar)
					dst[r*ld+c-clo] = s.Dot(ri, rv)
				}
			}
		} else {
			for r, ar := range rows {
				ri, rv := a.SparseRow(ar)
				s.Set(n, ri, rv)
				out := dst[r*ld:]
				for c := clo; c < chi; c++ {
					ci, cv := b.SparseRow(c)
					out[c-clo] = s.Dot(ci, cv)
				}
			}
		}
		s.Release()
		scatters.Put(s)
	case a.Sparse(): // sparse × dense: one pass over a CSR row per 4 b rows
		for r, ar := range rows {
			ri, rv := a.SparseRow(ar)
			out := dst[r*ld : r*ld+w]
			c := 0
			for ; c+4 <= w; c += 4 {
				spDenseDot4(ri, rv, b.DenseRow(clo+c), b.DenseRow(clo+c+1),
					b.DenseRow(clo+c+2), b.DenseRow(clo+c+3), out[c:c+4])
			}
			for ; c < w; c++ {
				out[c] = SpDenseDot(ri, rv, b.DenseRow(clo+c))
			}
		}
	default: // dense × sparse: densify each b column once, 4 a rows per pass
		bp := densified.Get().(*[]float64)
		if cap(*bp) < b.n {
			*bp = make([]float64, b.n)
		}
		buf := *bp
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
		densified.Put(bp)
	}
}

// spDenseDot4 sets dst[k] = SpDenseDot(ai, av, d_k) for the four dense rows
// d0..d3, which share one length, in one pass over the sparse row: four
// independent chains, each summed in SpDenseDot's order and skipping the
// same indices (those at or past the rows' length), so each output is
// SpDenseDot's bit for bit.
func spDenseDot4(ai []int32, av []float64, d0, d1, d2, d3 []float64, dst []float64) {
	n := len(d0)
	d1, d2, d3, av = d1[:n], d2[:n], d3[:n], av[:len(ai)]
	var s0, s1, s2, s3 float64
	for k, idx := range ai {
		if j := int(idx); j < n {
			v := av[k]
			s0 += v * d0[j]
			s1 += v * d1[j]
			s2 += v * d2[j]
			s3 += v * d3[j]
		}
	}
	dst[0], dst[1], dst[2], dst[3] = s0, s1, s2, s3
}

// densified recycles the row buffer MulTile's dense×sparse case densifies
// each b row into (RowInto clears it first), so a tile allocates nothing once
// a buffer of the feature width exists.
var densified = sync.Pool{New: func() any { return new([]float64) }}

// denseTile is MulTile's dense×dense block, and with dist SqDistTile's:
// each dot finished as SqDistOf(‖a_r‖², ‖b_c‖², dot) from the norm caches,
// which the caller has filled. Column-outer, 4 a-rows per pass: each b row is
// streamed once per quad of outputs instead of once per output — a 4× cut in
// b-side memory traffic, which is what makes large-SV batch predict win. Dot
// is bitwise symmetric in its arguments (same products, same order), so a
// panel with the b row as the shared vector equals Dot(a_r, b_c) per row,
// and the sum of the norms commutes, so the last len(rows)%4 rows' one-row
// passes finish as SqDistOf(‖a_r‖², ‖b_c‖², dot) too.
func denseTile(a *Matrix, rows []int, b *Matrix, clo, chi int, dst []float64, ld int, dist bool) {
	w, n := chi-clo, b.n
	cols := b.dense[clo*n : chi*n]
	var xn [4]float64
	var bn []float64
	if dist {
		bn = b.sqnorm[clo:chi]
	}
	r := 0
	for ; r+4 <= len(rows); r += 4 {
		if dist {
			xn = [4]float64{a.sqnorm[rows[r]], a.sqnorm[rows[r+1]], a.sqnorm[rows[r+2]], a.sqnorm[rows[r+3]]}
		}
		panel4(a.DenseRow(rows[r])[:n], a.DenseRow(rows[r+1]), a.DenseRow(rows[r+2]),
			a.DenseRow(rows[r+3]), cols, w, dst[r*ld:], ld, xn[:], bn)
	}
	for ; r < len(rows); r++ {
		var xsq float64
		if dist {
			xsq = a.sqnorm[rows[r]]
		}
		dotList(a.DenseRow(rows[r]), b, clo, nil, dst[r*ld:r*ld+w], bn, xsq)
	}
}

// SqDistTile computes the squared-distance block
//
//	dst[r*ld + (c-clo)] = max(0, ‖a_row(rows[r])‖² + ‖b_row(c)‖² − 2·<a_r, b_c>)
//
// for c in [clo, chi): MulTile's block with each matrix's norm cache
// (EnsureNorms) through SqDistOf. It is the one nearest-center distance —
// Lloyd sweeps, FCFS, balanced K-means and query routing — and the Gaussian
// kernel's distance. Each element is bit-identical to SqDistOf over the
// scalar dot MulTile matches for the storage pairing (DotVec when b is
// dense). A dense×dense tile finishes each distance in the pass that computes
// its dot — the panels' and one-column tiles' lanes, as SqDistOf(‖a_r‖²,
// ‖b_c‖², dot) or, in a one-column tile, SqDistOf(‖b_c‖², ‖a_r‖², dot): the
// sum of the norms commutes. Other pairings finish the MulTile block in a
// second pass. Same dst and ld contract as MulTile.
func SqDistTile(a *Matrix, rows []int, b *Matrix, clo, chi int, dst []float64, ld int) {
	if chi <= clo || len(rows) == 0 {
		return
	}
	a.EnsureNorms()
	b.EnsureNorms()
	switch {
	case oneColumn(a, b, chi-clo, ld):
		dotList(b.DenseRow(clo), a, 0, rows, dst[:len(rows)], a.sqnorm, b.sqnorm[clo])
		return
	case !a.sparse && !b.sparse:
		denseTile(a, rows, b, clo, chi, dst, ld, true)
		return
	}
	MulTile(a, rows, b, clo, chi, dst, ld)
	bn := b.sqnorm[clo:chi]
	for r, i := range rows {
		ni := a.sqnorm[i]
		out := dst[r*ld : r*ld+len(bn)]
		for k, nc := range bn {
			out[k] = SqDistOf(ni, nc, out[k])
		}
	}
}

// Mirror is where ExpDistTile stores a tile's transpose: rows of a matrix
// kept in chunks of Per rows each (internal/kernel's row storage), a row of
// the tile's ld values. Tile column c goes to row Row + c − clo and tile row
// r to column Col + r. The zero Mirror stores nothing.
type Mirror struct {
	Chunks   [][]float64
	Per      int
	Row, Col int
}

// run returns the storage from tile column c's mirror entry for tile row 0
// on, and how many columns from c have their rows in that chunk.
func (m Mirror) run(c, ld int) ([]float64, int) {
	j := m.Row + c
	q, i := j/m.Per, j%m.Per
	return m.Chunks[q][i*ld+m.Col:], m.Per - i
}

// Store sets the mirror entries of a rows × w tile at row stride ld: row
// Row + c, column Col + r takes tile[r*ld + c], pushed a column at a time.
func (m Mirror) Store(tile []float64, ld, rows, w int) {
	for c := 0; c < w; {
		mc, k := m.run(c, ld)
		k = min(k, w-c)
		for j := range k {
			for r := range rows {
				mc[j*ld+r] = tile[r*ld+c+j]
			}
		}
		c += k
	}
}

// ExpDistTile sets dst[r*ld + (c-clo)] = math.Exp(s·d) bit for bit for c in
// [clo, chi), d being SqDistTile's distance from listed row rows[r] of a to
// row c of b: with s = −γ, the Gaussian kernel block CrossTile writes. With
// mirror not the zero Mirror it also stores the same values as the tile's
// transpose there, whose rows must be ld values long: a caller whose rows
// are consecutive rows of b, and whose mirror rows are b's, stores K's other
// triangle in the same pass. a and b must be dense, and dst must hold
// (len(rows)-1)*ld + (chi-clo) values.
//
// Four rows go through a panel at a time (expPanel4): each column's four
// distances are finished, exponentiated and stored into both places from
// the panel's registers where the lanes run, across the mirror's chunks in
// one call. The last len(rows)%4 rows go one at a time: dotList's distances
// into the row, ExpScaled, and their mirror entries from the row.
func ExpDistTile(a *Matrix, rows []int, b *Matrix, clo, chi int, s float64, dst []float64, ld int, mirror Mirror) {
	w, n := chi-clo, b.n
	if w <= 0 || len(rows) == 0 {
		return
	}
	a.EnsureNorms()
	b.EnsureNorms()
	cols, bn, dst := b.dense[clo*n:chi*n], b.sqnorm[clo:chi], dst[:(len(rows)-1)*ld+w]
	if mirror.Chunks != nil {
		// Every mirror row holds the tile's rows: the lanes store into them.
		for c := 0; c < w; {
			mc, k := mirror.run(c, ld)
			_ = mc[(min(k, w-c)-1)*ld+len(rows)-1]
			c += k
		}
	}
	p := sumPanel{s: [4]float64{s, s, s, s}}
	r := 0
	for ; r+4 <= len(rows); r += 4 {
		x0, x1, x2, x3 := a.DenseRow(rows[r])[:n], a.DenseRow(rows[r+1]), a.DenseRow(rows[r+2]), a.DenseRow(rows[r+3])
		p.xn = [4]float64{a.sqnorm[rows[r]], a.sqnorm[rows[r+1]], a.sqnorm[rows[r+2]], a.sqnorm[rows[r+3]]}
		pm := mirror
		pm.Col += r
		expPanel4(x0, x1, x2, x3, cols, w, dst[r*ld:], ld, bn, pm, &p)
	}
	for ; r < len(rows); r++ {
		out := dst[r*ld : r*ld+w]
		dotList(a.DenseRow(rows[r]), b, clo, nil, out, bn, a.sqnorm[rows[r]])
		ExpScaled(out, s)
		if mirror.Chunks != nil {
			row := mirror
			row.Col += r
			row.Store(out, ld, 1, w)
		}
	}
}

// expPanel4 is ExpDistTile's panel: dst[k*ld + c] = math.Exp(s·SqDistOf(
// p.xn[k], bn[c], Dot(x_k, b[c*n : c*n+n]))) for the four vectors x0..x3 and
// each of the w n-float rows of b, n being len(x0) and s every lane of p.s,
// and the same four values at mirror column c's entry for tile row 0 on,
// unless mirror is the zero Mirror. Where the lanes run and s ≤ 0, as the
// Gaussian's −γ is, expPanelVec finishes batches of up to sumBatch columns in
// registers; a batch it hands back, holding an exponent outside [−708, 709]
// or not finite, has its exponents s·d in p.d, which math.Exp finishes here
// as ExpScaled would. Elsewhere expPanelLoop runs.
func expPanel4(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int, bn []float64, mirror Mirror, p *sumPanel) {
	n := len(x0)
	x1, x2, x3, b, dst, bn = x1[:n], x2[:n], x3[:n], b[:w*n], dst[:3*ld+w], bn[:w]
	if !vectorKernels || !(p.s[0] <= 0) {
		expPanelLoop(x0, x1, x2, x3, b, w, dst, ld, bn, mirror, p)
		return
	}
	p.setTail(x0, x1, x2, x3)
	for c := 0; c < w; {
		c += expPanelVec(x0, x1, x2, x3, b[c*n:], w-c, dst[c:], ld, bn[c:],
			mirror.Chunks, mirror.Per, mirror.Row+c, mirror.Col, p)
		if c == w {
			break
		}
		// A batch holding an exponent the lanes leave to math.Exp.
		for _, t := range p.d[:min(sumBatch, w-c)] {
			for k, tk := range t {
				t[k] = math.Exp(tk)
			}
			put(t, c, dst, ld, mirror)
			c++
		}
	}
}

// expPanelLoop is expPanel4's portable loop: a column's four dots (dot4Loop),
// each finished as math.Exp(s·SqDistOf(p.xn[k], bn[c], dot)) and stored into
// dst and mirror (put).
func expPanelLoop(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int, bn []float64, mirror Mirror, p *sumPanel) {
	n := len(x0)
	var d [4]float64
	for c := range w {
		dot4Loop(b[c*n:c*n+n], x0, x1, x2, x3, d[:])
		for k, dot := range d {
			d[k] = math.Exp(p.s[k] * SqDistOf(p.xn[k], bn[c], dot))
		}
		put(d, c, dst, ld, mirror)
	}
}

// put stores column c's four values v down the column in dst and, unless it
// is the zero Mirror, along the column's row of mirror.
func put(v [4]float64, c int, dst []float64, ld int, mirror Mirror) {
	for k, x := range v {
		dst[k*ld+c] = x
	}
	if mirror.Chunks != nil {
		mc, _ := mirror.run(c, ld)
		copy(mc[:4], v[:])
	}
}

// sumPanel is the state expDistSumVec and expPanelVec carry for their four
// rows: their running sums (expDistSumVec's alone) and squared norms, the
// exponent's scale in every lane, their elements past the last whole quad,
// and the batch of columns under way — its distances in expDistSumVec, its
// exponents s·d in expPanelVec (a batch the lanes stop before is left
// there).
type sumPanel struct {
	acc, xn, s [4]float64
	tail       [3][4]float64
	d          [sumBatch][4]float64
}

// setTail puts x0..x3's elements past their last whole quad into p.tail.
func (p *sumPanel) setTail(x0, x1, x2, x3 []float64) {
	n := len(x0)
	for t := range n - n&^3 {
		i := n&^3 + t
		p.tail[t] = [4]float64{x0[i], x1[i], x2[i], x3[i]}
	}
}

// sumBatch is how many columns expDistSumVec and expPanelVec finish the
// distances of before they take their exps, which then overlap.
const sumBatch = 8

// sumChunk is how many distances ExpDistSum's one-row path finishes per
// dotList and ExpScaled call, in a buffer on the stack.
const sumChunk = 128

// ExpDistSum adds coef[c-clo]·exp(s·d) to out[k] for every row c of b in
// [clo, chi), in ascending c, one addition a term, d being the SqDistTile
// distance from listed row rows[k] of a (row k when rows is nil) to row c of
// b. With s = −γ and coef the αy coefficients it is the Gaussian decision
// sum, and each term is the per-row recipe's: out[k] + coef·exp(−γ·SqDistOf(
// ‖a_r‖², ‖b_c‖², Dot(a_r, b_c))), so a caller that hands it the blocks of b
// in ascending order leaves the per-row sum in out bit for bit, however it
// blocks them. a and b must be dense; out holds one value per listed row.
//
// Where the lanes run, four rows go through a panel at a time: each b row
// is streamed once per quad, and its dots, exps and terms stay in registers,
// its distances in the panel's stack state for a batch of up to sumBatch
// columns (expDistSumVec). A term whose exponent is outside [−708, 709] or
// not finite takes math.Exp, as ExpScaled does. The last
// len(out)%4 rows, and every row without the lanes, go one at a time through
// the one-column path: dotList's distances into a stack buffer, ExpScaled,
// and the sum.
func ExpDistSum(a *Matrix, rows []int, b *Matrix, clo, chi int, coef []float64, s float64, out []float64) {
	w, n := chi-clo, b.n
	if w <= 0 || len(out) == 0 {
		return
	}
	a.EnsureNorms()
	b.EnsureNorms()
	cols, bn, coef := b.dense[clo*n:chi*n], b.sqnorm[clo:chi], coef[:w]
	row := func(k int) int {
		if rows == nil {
			return k
		}
		return rows[k]
	}
	k := 0
	if vectorKernels && a.n == n {
		for ; k+4 <= len(out); k += 4 {
			i0, i1, i2, i3 := row(k), row(k+1), row(k+2), row(k+3)
			x0, x1, x2, x3 := a.DenseRow(i0), a.DenseRow(i1), a.DenseRow(i2), a.DenseRow(i3)
			p := sumPanel{
				acc: [4]float64(out[k : k+4]),
				xn:  [4]float64{a.sqnorm[i0], a.sqnorm[i1], a.sqnorm[i2], a.sqnorm[i3]},
				s:   [4]float64{s, s, s, s},
			}
			p.setTail(x0, x1, x2, x3)
			for c := 0; ; {
				c += expDistSumVec(x0, x1, x2, x3, cols[c*n:], w-c, bn[c:], coef[c:], &p)
				if c == w {
					break
				}
				// A batch holding an exponent the lanes leave to math.Exp.
				for _, d := range p.d[:min(sumBatch, w-c)] {
					for j, dj := range d {
						p.acc[j] += coef[c] * math.Exp(s*dj)
					}
					c++
				}
			}
			copy(out[k:k+4], p.acc[:])
		}
	}
	var buf [sumChunk]float64
	for ; k < len(out); k++ {
		i := row(k)
		x, xsq := a.DenseRow(i), a.sqnorm[i]
		for lo := 0; lo < w; lo += sumChunk {
			kv := buf[:min(sumChunk, w-lo)]
			dotList(x, b, clo+lo, nil, kv, bn[lo:], xsq)
			ExpScaled(kv, s)
			for c, v := range kv {
				out[k] += coef[lo+c] * v
			}
		}
	}
}

// oneColumn reports whether a tile of w columns at stride ld takes the
// one-column path: dense×dense, one column, contiguous.
func oneColumn(a, b *Matrix, w, ld int) bool {
	return !a.sparse && !b.sparse && w == 1 && ld == 1
}

// distBlock is how many rows of a SqDistEach takes per SqDistTile call: the
// scratch is one block of distances, and the b matrix is streamed once per
// block instead of once per row. The b side is a handful of centers that
// stays in cache, so four MulTile panels a block already amortise the call,
// and the scratch stays small beside the caller's own allocations.
const distBlock = 16

// SqDistEach calls fn(i, d) for every row i of a in ascending order, with
// d[c] the SqDistTile distance from row i to row c of b. d is scratch the
// next call overwrites: fn must not keep it.
func SqDistEach(a, b *Matrix, fn func(i int, d []float64)) {
	m, k := a.Rows(), b.Rows()
	if m == 0 || k == 0 {
		return
	}
	rows := make([]int, 0, min(distBlock, m))
	dst := make([]float64, cap(rows)*k)
	for lo := 0; lo < m; lo += distBlock {
		rows = rows[:0]
		for i := lo; i < min(lo+distBlock, m); i++ {
			rows = append(rows, i)
		}
		SqDistTile(a, rows, b, 0, k, dst, k)
		for r, i := range rows {
			fn(i, dst[r*k:r*k+k])
		}
	}
}

// ArgMin returns the index of the smallest value in d, the lowest index on a
// tie, and 0 when no value is below +Inf (NaN never wins): the one
// nearest-center rule.
func ArgMin(d []float64) int {
	best, bi := math.Inf(1), 0
	for i, v := range d {
		if v < best {
			best, bi = v, i
		}
	}
	return bi
}
