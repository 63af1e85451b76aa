package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// guard marks the values an ExpDistTile case must leave alone: the gaps
// between its outputs and one value past each end.
const guard = 42

// checkExpDistTile holds ExpDistTile over (a, rows, b, [clo, chi), s) to the
// recipe — math.Exp(s·SqDistOf(‖a_r‖², ‖b_c‖², Dot(a_r, b_c))) — bitwise,
// NaNs aside, at a row stride two wider than the tile or its transpose,
// without a mirror and with mirrors in one chunk and in chunks of two and
// three rows, the first row and column of the transpose one in: each mirror
// entry must be its tile entry, and every value around the outputs must be
// left as it was.
func checkExpDistTile(t *testing.T, what string, a *Matrix, rows []int, b *Matrix, clo, chi int, s float64) {
	t.Helper()
	a.EnsureNorms()
	b.EnsureNorms()
	w := chi - clo
	ld := max(w, len(rows)) + 2
	for _, per := range []int{0, w + 1, 2, 3} {
		dst := make([]float64, len(rows)*ld+1)
		for i := range dst {
			dst[i] = guard
		}
		// A transpose of w rows from row 1, column 1 on, in chunks of per
		// rows, each chunk one value longer than its rows.
		var mirror Mirror
		if per > 0 {
			mirror = Mirror{Per: per, Row: 1, Col: 1}
			for lo := 0; lo < w+1; lo += per {
				ch := make([]float64, per*ld+1)
				for i := range ch {
					ch[i] = guard
				}
				mirror.Chunks = append(mirror.Chunks, ch[:per*ld])
			}
		}
		ExpDistTile(a, rows, b, clo, chi, s, dst[:len(dst)-1], ld, mirror)
		for r, i := range rows {
			for c := clo; c < chi; c++ {
				want := math.Exp(s * SqDistOf(a.sqnorm[i], b.sqnorm[c], Dot(a.DenseRow(i), b.DenseRow(c))))
				got := dst[r*ld+c-clo]
				if !same(got, want) {
					t.Fatalf("%s per=%d: row %d col %d: %v (%#x), recipe %v (%#x)", what, per, i, c,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		for k, v := range dst {
			if r, c := k/ld, k%ld; (r >= len(rows) || c >= w) && v != guard {
				t.Fatalf("%s per=%d: dst[%d] = %v, outside the tile", what, per, k, v)
			}
		}
		for q, ch := range mirror.Chunks {
			for k, v := range ch[:cap(ch)] {
				j, col := q*per+k/ld, k%ld
				c, r := j-1, col-1
				inside := k < per*ld && c >= 0 && c < w && r >= 0 && r < len(rows)
				if inside && !same(v, dst[r*ld+c]) {
					t.Fatalf("%s per=%d: mirror of row %d col %d: %v, tile %v", what, per, rows[r], clo+c, v, dst[r*ld+c])
				}
				if !inside && v != guard {
					t.Fatalf("%s per=%d: chunk %d [%d] = %v, outside the transpose", what, per, q, k, v)
				}
			}
		}
	}
}

// checkExpPanel holds expPanel4 — the lanes where they run — to its portable
// loop on the same panel, with its mirror rows in chunks of three: every
// output and mirror entry bitwise, NaNs aside, and nothing written around
// them.
func checkExpPanel(t *testing.T, what string, x [4][]float64, cols []float64, w int, xn [4]float64, bn []float64, s float64) {
	t.Helper()
	const ld, per = 5, 3
	run := func(panel func(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int, bn []float64, mirror Mirror, p *sumPanel)) (dst []float64, chunks [][]float64) {
		dst = make([]float64, 3*ld+w+1)
		for i := range dst {
			dst[i] = guard
		}
		mirror := Mirror{Per: per, Row: 2, Col: 1}
		for lo := 0; lo < w+2; lo += per {
			ch := make([]float64, per*ld+1)
			for i := range ch {
				ch[i] = guard
			}
			mirror.Chunks = append(mirror.Chunks, ch[:per*ld])
		}
		if w > 0 {
			p := sumPanel{xn: xn, s: [4]float64{s, s, s, s}}
			panel(x[0], x[1], x[2], x[3], cols, w, dst[:len(dst)-1], ld, bn, mirror, &p)
		}
		return dst, mirror.Chunks
	}
	gotD, gotM := run(expPanel4)
	wantD, wantM := run(expPanelLoop)
	for i := range wantD {
		if !same(gotD[i], wantD[i]) {
			t.Fatalf("%s: w=%d dst[%d]: panel %v (%#x), loop %v (%#x)", what, w, i,
				gotD[i], math.Float64bits(gotD[i]), wantD[i], math.Float64bits(wantD[i]))
		}
	}
	for q := range wantM {
		for i, want := range wantM[q][:per*ld+1] {
			if got := gotM[q][:per*ld+1][i]; !same(got, want) {
				t.Fatalf("%s: w=%d chunk %d [%d]: panel %v (%#x), loop %v (%#x)", what, w, q, i,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestExpDistTileMatchesRecipe runs tiles of 0–9 rows (every len%4) against
// odd and even column counts, over near-duplicate rows whose distances clamp,
// planted specials and planted norms, at scales whose exponents stay in
// [−708, 709], straddle its ends mid-panel, or leave it, and at a positive
// scale, which the portable loop takes.
func TestExpDistTileMatchesRecipe(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
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
			all := []int{10, 0, 3, 3, 7, 1, 9, 2, 5}
			for _, s := range []float64{-0.3, -60, -1e4, math.Copysign(0, -1), 0.01} {
				for nr := 0; nr <= len(all); nr++ {
					for _, span := range [][2]int{{0, 9}, {2, 7}, {4, 5}, {3, 3}} {
						checkExpDistTile(t, fmt.Sprintf("n=%d trial %d s=%v rows %v cols %v", n, trial, s, all[:nr], span),
							a, all[:nr], b, span[0], span[1], s)
					}
				}
			}
		}
	}
}

// TestExpDistTilePanelMatchesLoop holds the lane panel to its portable loop
// where the exponents cross [−708, 709] column by column: a row far from the
// rest puts some lanes of a pair out of range and leaves others in, in the
// pair's first column, its second, both, and a last odd one.
func TestExpDistTilePanelMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	const n = 6
	for w := 0; w <= 9; w++ {
		for far := -1; far < w; far++ {
			b := randDense(rng, w, n)
			if far >= 0 {
				for j := range n {
					b.dense[far*n+j] *= 40
				}
			}
			b.EnsureNorms()
			var x [4][]float64
			var xn [4]float64
			for k := range x {
				x[k] = randDense(rng, 1, n).dense
				xn[k] = Dot(x[k], x[k])
			}
			for _, s := range []float64{-0.5, -3, -0.001} {
				checkExpPanel(t, fmt.Sprintf("far column %d s=%v", far, s), x, b.dense, w, xn, b.sqnorm, s)
			}
		}
	}
}

// FuzzExpDistTile holds ExpDistTile to the recipe, and its lane panel to the
// portable loop, bitwise on arbitrary bit patterns: raw, cycled, fills a
// rows×n and a cols×n matrix (rows%10, cols%12, n%9) and, in the panel, the
// norms too, so NaN, ±Inf, −0, subnormals and exponents outside [−708, 709]
// all arise; scale is the exponent's scale.
func FuzzExpDistTile(f *testing.F) {
	f.Add(bytesOf(1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(5), uint8(9), uint8(4), -0.5)
	f.Add(bytesOf(dot4Specials...), uint8(9), uint8(11), uint8(7), -0.01)
	f.Add(bytesOf(30, -30, 1e-3, 2), uint8(4), uint8(8), uint8(3), -1000.0)
	f.Add(bytesOf(math.Copysign(0, -1), 0, 5e-324, -5e-324), uint8(6), uint8(3), uint8(2), math.Copysign(0, -1))
	f.Add(bytesOf(26.6, -0.1, 26.7, 0.05, 2.2250738585072014e-308), uint8(8), uint8(7), uint8(1), -1.0)
	f.Add([]byte{}, uint8(4), uint8(2), uint8(0), -1.0)
	f.Fuzz(func(t *testing.T, raw []byte, rows, cols, feats uint8, scale float64) {
		vals := float64s(raw)
		nr, w, n := int(rows%10), int(cols%12), int(feats%9)
		at := func(i int) float64 {
			if len(vals) == 0 {
				return 0
			}
			return vals[i%len(vals)]
		}
		a, b := Zeros(nr, n), Zeros(w, n)
		for i := range a.dense {
			a.dense[i] = at(i)
		}
		for i := range b.dense {
			b.dense[i] = at(len(a.dense) + i)
		}
		checkExpDistTile(t, "fuzz", a, allRows(nr), b, 0, w, scale)
		var x [4][]float64
		var xn [4]float64
		for k := range x {
			x[k] = make([]float64, n)
			for j := range x[k] {
				x[k][j] = at(3*k + j)
			}
			xn[k] = at(7 * k)
		}
		bn := make([]float64, w)
		for c := range bn {
			bn[c] = at(5*c + 1)
		}
		checkExpPanel(t, "fuzz", x, b.dense, w, xn, bn, scale)
	})
}
