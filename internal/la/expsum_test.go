package la

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// plantSpecials replaces about one value in twelve of m with one of
// dot4Specials.
func plantSpecials(rng *rand.Rand, m *Matrix) {
	for i := range m.dense {
		if rng.Intn(12) == 0 {
			m.dense[i] = dot4Specials[rng.Intn(len(dot4Specials))]
		}
	}
}

// distNorms are norms SqDistTilePanels and the ExpDistSum tests plant over
// a matrix's own, so the norms identity meets ±0, NaN, ±Inf, subnormals and
// sums far below twice the dot.
var distNorms = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1e308}

// nearDuplicates returns m rows of n features, each pair of consecutive rows
// the same row but for one ulp here and there: their norms identity rounds
// below zero as often as not.
func nearDuplicates(rng *rand.Rand, m, n int) *Matrix {
	a := randDense(rng, m, n)
	for i := 1; i < m; i += 2 {
		for j := range n {
			v := a.dense[(i-1)*n+j]
			if rng.Intn(3) == 0 {
				v = math.Nextafter(v, math.Inf(1))
			}
			a.dense[i*n+j] = v
		}
	}
	return a
}

// TestSqDistTilePanelsMatchSqDistOf: a dense×dense SqDistTile finishes every
// distance in the pass that computes its dot — the four-row panels and the
// last len%4 rows — and each is SqDistOf over that row pair's Dot and the
// two norm caches, bitwise: over near-duplicate rows whose identity rounds
// below zero, over planted specials, and over planted norms.
func TestSqDistTilePanelsMatchSqDistOf(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 1, 3, 4, 7, 16, 33} {
		for trial := 0; trial < 6; trial++ {
			a, b := nearDuplicates(rng, 11, n), nearDuplicates(rng, 9, n)
			if trial >= 2 {
				plantSpecials(rng, a)
				plantSpecials(rng, b)
			}
			a.EnsureNorms()
			b.EnsureNorms()
			if trial >= 4 {
				for _, nrm := range [][]float64{a.sqnorm, b.sqnorm} {
					for i := range nrm {
						if rng.Intn(3) == 0 {
							nrm[i] = distNorms[rng.Intn(len(distNorms))]
						}
					}
				}
			}
			rows := []int{10, 0, 3, 3, 7, 1, 9, 2, 5}
			for _, span := range [][2]int{{0, 9}, {2, 7}, {4, 5}} {
				clo, chi := span[0], span[1]
				ld := chi - clo + 2
				dst := make([]float64, len(rows)*ld)
				SqDistTile(a, rows, b, clo, chi, dst, ld)
				for r, i := range rows {
					for c := clo; c < chi; c++ {
						want := SqDistOf(a.sqnorm[i], b.sqnorm[c], Dot(a.DenseRow(i), b.DenseRow(c)))
						if got := dst[r*ld+c-clo]; !same(got, want) {
							t.Fatalf("n=%d trial %d tile [%d,%d) row %d col %d: %v (%#x), SqDistOf %v (%#x)",
								n, trial, clo, chi, i, c, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// expDistSumOracle is ExpDistSum's per-row recipe written out: the oracle's
// kernel value exp(s·SqDistOf(‖b_c‖², ‖a_r‖², Dot(b_c, a_r))), times its
// coefficient, added to the row's sum one column at a time.
func expDistSumOracle(a *Matrix, rows []int, b *Matrix, clo, chi int, coef []float64, s float64, out []float64) {
	for k := range out {
		i := k
		if rows != nil {
			i = rows[k]
		}
		for c := clo; c < chi; c++ {
			kv := math.Exp(s * SqDistOf(b.SqNormRow(c), a.SqNormRow(i), Dot(b.DenseRow(c), a.DenseRow(i))))
			out[k] += coef[c-clo] * kv
		}
	}
}

// checkExpDistSum holds ExpDistSum over rows of a and columns [clo, chi) of
// b to its oracle bitwise, both starting from the sums in start.
func checkExpDistSum(t *testing.T, name string, a *Matrix, rows []int, b *Matrix, clo, chi int, coef []float64, s float64, start []float64) {
	t.Helper()
	got, want := append([]float64(nil), start...), append([]float64(nil), start...)
	ExpDistSum(a, rows, b, clo, chi, coef, s, got)
	expDistSumOracle(a, rows, b, clo, chi, coef, s, want)
	for k := range want {
		if !same(got[k], want[k]) {
			t.Fatalf("%s: sum %d: %v (%#x), oracle %v (%#x)", name, k,
				got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// TestExpDistSumMatchesRecipe: the query panels and the one-row path add
// each term of the Gaussian decision sum as the per-row recipe does, bit for
// bit — at every row count 0–9 and 63–65 (whole panels, every remainder),
// column counts either side of a lane batch (sumBatch) and of the one-row
// chunk (sumChunk), feature counts with and without a tail, listed and
// implicit rows, exponents inside [−708, 709] and below it (s = −900 on
// distances of tens), a scale so small it rounds every exponent to −0, and
// planted specials and norms.
func TestExpDistSumMatchesRecipe(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	var counts []int
	for q := 0; q <= 9; q++ {
		counts = append(counts, q)
	}
	counts = append(counts, 63, 64, 65)
	for _, n := range []int{0, 1, 5, 8, 13} {
		for _, nq := range counts {
			for _, w := range []int{1, 2, 7, 8, 9, 17, 129} {
				for _, s := range []float64{-0.05, -900, -1e-320} {
					a, b := randDense(rng, nq+3, n), randDense(rng, w+2, n)
					coef := make([]float64, w)
					for i := range coef {
						coef[i] = rng.NormFloat64()
					}
					start := make([]float64, nq)
					for i := range start {
						start[i] = rng.NormFloat64()
					}
					name := func(what string) string {
						return fmt.Sprintf("%s: n=%d rows=%d cols=%d s=%g", what, n, nq, w, s)
					}
					checkExpDistSum(t, name("implicit rows"), a, nil, b, 1, w+1, coef, s, start)
					rows := make([]int, nq)
					for i := range rows {
						rows[i] = rng.Intn(a.Rows())
					}
					checkExpDistSum(t, name("listed rows"), a, rows, b, 2, w+2, coef, s, start)
				}
			}
		}
	}
	// Specials in the rows, and planted norms.
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(9)
		a, b := nearDuplicates(rng, 13, n), nearDuplicates(rng, 19, n)
		plantSpecials(rng, a)
		plantSpecials(rng, b)
		a.EnsureNorms()
		b.EnsureNorms()
		if trial%2 == 1 {
			for _, nrm := range [][]float64{a.sqnorm, b.sqnorm} {
				for i := range nrm {
					if rng.Intn(4) == 0 {
						nrm[i] = distNorms[rng.Intn(len(distNorms))]
					}
				}
			}
		}
		coef := make([]float64, 19)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		checkExpDistSum(t, fmt.Sprintf("specials, trial %d", trial), a, nil, b, 0, 19, coef, -0.3, make([]float64, 13))
	}
}

// FuzzExpDistSum holds ExpDistSum to its oracle bitwise on arbitrary bit
// patterns: raw, cycled, fills a rows×n and a cols×n matrix (rows%10,
// cols%20, n%9) and the coefficients, and scale is the exponent's scale.
func FuzzExpDistSum(f *testing.F) {
	f.Add(bytesOf(1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(5), uint8(9), uint8(4), -0.5)
	f.Add(bytesOf(dot4Specials...), uint8(9), uint8(17), uint8(7), -0.01)
	f.Add(bytesOf(30, -30, 1e-3, 2), uint8(4), uint8(8), uint8(3), -1000.0)
	f.Add(bytesOf(math.Copysign(0, -1), 0, 5e-324), uint8(6), uint8(3), uint8(2), math.Copysign(0, -1))
	f.Add([]byte{}, uint8(4), uint8(2), uint8(0), -1.0)
	f.Fuzz(func(t *testing.T, raw []byte, rows, cols, feats uint8, scale float64) {
		vals := float64s(raw)
		nq, w, n := int(rows%10), 1+int(cols%20), int(feats%9)
		at := func(i int) float64 {
			if len(vals) == 0 {
				return 0
			}
			return vals[i%len(vals)]
		}
		a, b := Zeros(nq, n), Zeros(w, n)
		for i := range a.dense {
			a.dense[i] = at(i)
		}
		for i := range b.dense {
			b.dense[i] = at(len(a.dense) + i)
		}
		coef := make([]float64, w)
		for i := range coef {
			coef[i] = at(3*i + 1)
		}
		checkExpDistSum(t, "fuzz", a, nil, b, 0, w, coef, scale, make([]float64, nq))
	})
}

// TestQuotedSpanFindsTheEnd: QuotedSpan stops at the first '"' or '\' of a
// 175 KB base64-like value and reports a LF or CR before it — each byte at
// the first, a middle and the last position, alone and after a LF or CR —
// as the byte-at-a-time walk does.
func TestQuotedSpanFindsTheEnd(t *testing.T) {
	const size = 175 << 10
	alphabet := []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/")
	base := make([]byte, size)
	for i := range base {
		base[i] = alphabet[i*7%len(alphabet)]
	}
	walk := func(s []byte) (int, bool) {
		ctl := false
		for n, c := range s {
			switch c {
			case '"', '\\':
				return n, ctl
			case '\n', '\r':
				ctl = true
			}
		}
		return len(s), ctl
	}
	check := func(s []byte, what string) {
		t.Helper()
		n, ctl := QuotedSpan(s)
		wn, wctl := walk(s)
		if n != wn || ctl != wctl {
			t.Fatalf("%s: QuotedSpan (%d, %v), walk (%d, %v)", what, n, ctl, wn, wctl)
		}
	}
	check(base, "no stop")
	check(nil, "empty")
	for _, at := range []int{0, size / 2, size/2 + 31, size - 1} {
		for _, c := range []byte{'"', '\\', '\n', '\r'} {
			s := bytes.Clone(base)
			s[at] = c
			check(s, "one byte")
			// A stop after a line break in the same block and in an earlier one.
			for _, gap := range []int{1, 40} {
				if at >= gap {
					s := bytes.Clone(base)
					s[at-gap], s[at] = '\n', c
					check(s, "after a LF")
					s[at-gap] = '\r'
					check(s, "after a CR")
				}
			}
			// A line break after the stop does not count.
			if at+1 < size {
				s := bytes.Clone(base)
				s[at], s[at+1] = c, '\n'
				check(s, "before a LF")
			}
		}
	}
	for n := 0; n <= 70; n++ {
		for at := 0; at < n; at++ {
			s := bytes.Clone(base[:n])
			s[at] = '"'
			check(s, "short")
		}
	}
}
