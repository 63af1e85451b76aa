package la

import (
	"math/rand"
	"testing"
)

// The tile layer's whole value proposition is bit-identity with the scalar
// kernels it replaces, so every test here uses ==, never a tolerance.

func TestDot4MatchesDotBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var dst [4]float64
	for n := 0; n <= 67; n++ {
		x := randVec(rng, n)
		bs := [4][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		Dot4(x, bs[0], bs[1], bs[2], bs[3], dst[:])
		for c := 0; c < 4; c++ {
			if want := Dot(x, bs[c]); dst[c] != want {
				t.Fatalf("n=%d col=%d: Dot4=%v Dot=%v", n, c, dst[c], want)
			}
		}
	}
}

func TestDot4SymmetricMatchesDotBitwise(t *testing.T) {
	// The dense×sparse MulTile path relies on Dot4(col, row0..row3) equalling
	// Dot(row_i, col): Dot is bitwise symmetric (same products, same order).
	rng := rand.New(rand.NewSource(32))
	var dst [4]float64
	for n := 0; n <= 67; n++ {
		x := randVec(rng, n)
		bs := [4][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		Dot4(x, bs[0], bs[1], bs[2], bs[3], dst[:])
		for c := 0; c < 4; c++ {
			if want := Dot(bs[c], x); dst[c] != want {
				t.Fatalf("n=%d col=%d: Dot4=%v Dot(swapped)=%v", n, c, dst[c], want)
			}
		}
	}
}

// refDot is the scalar primitive the row-at-a-time paths use for the given
// storage pairing — the reference MulTile must match bitwise.
func refDot(a *Matrix, i int, b *Matrix, j int, buf []float64) float64 {
	switch {
	case !a.Sparse() && !b.Sparse():
		return Dot(a.DenseRow(i), b.DenseRow(j))
	case a.Sparse() && b.Sparse():
		ai, av := a.SparseRow(i)
		bi, bv := b.SparseRow(j)
		return SpDot(ai, av, bi, bv)
	case a.Sparse():
		ai, av := a.SparseRow(i)
		return SpDenseDot(ai, av, b.DenseRow(j))
	default:
		return Dot(a.DenseRow(i), b.RowInto(j, buf))
	}
}

func TestMulTileMatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	mk := func(m, n int, sparse bool) *Matrix {
		if sparse && n >= 1024 {
			return randSparse(rng, m, n, 0.02) // wide and low-density: the workload's shape
		}
		if sparse {
			return randSparse(rng, m, n, 0.35)
		}
		return randDense(rng, m, n)
	}
	// Ragged shapes on purpose: row counts and column windows that are not
	// multiples of the 4-wide microkernel.
	shapes := []struct{ am, bm, n int }{
		{1, 1, 5}, {3, 7, 13}, {4, 4, 16}, {5, 9, 31}, {8, 6, 64}, {7, 11, 3}, {6, 33, 2048},
	}
	for _, aSp := range []bool{false, true} {
		for _, bSp := range []bool{false, true} {
			for _, sh := range shapes {
				a := mk(sh.am, sh.n, aSp)
				b := mk(sh.bm, sh.n, bSp)
				rows := rng.Perm(sh.am)[:1+rng.Intn(sh.am)]
				clo := rng.Intn(sh.bm)
				chi := clo + 1 + rng.Intn(sh.bm-clo)
				ld := (chi - clo) + rng.Intn(3) // ld may exceed the tile width
				dst := make([]float64, len(rows)*ld)
				MulTile(a, rows, b, clo, chi, dst, ld)
				buf := make([]float64, sh.n)
				for r, ar := range rows {
					for c := clo; c < chi; c++ {
						got := dst[r*ld+(c-clo)]
						want := refDot(a, ar, b, c, buf)
						if got != want {
							t.Fatalf("aSp=%v bSp=%v shape=%+v r=%d c=%d: tile=%v scalar=%v",
								aSp, bSp, sh, ar, c, got, want)
						}
					}
				}
			}
		}
	}
}

func TestMulTileSameMatrix(t *testing.T) {
	// a == b (training-scan shape: K rows against the whole set).
	rng := rand.New(rand.NewSource(35))
	for _, sp := range []bool{false, true} {
		var a *Matrix
		if sp {
			a = randSparse(rng, 9, 21, 0.4)
		} else {
			a = randDense(rng, 9, 21)
		}
		rows := []int{8, 0, 5}
		dst := make([]float64, len(rows)*a.Rows())
		MulTile(a, rows, a, 0, a.Rows(), dst, a.Rows())
		for r, ar := range rows {
			for c := 0; c < a.Rows(); c++ {
				if got, want := dst[r*a.Rows()+c], a.DotRows(ar, c); got != want {
					t.Fatalf("sp=%v r=%d c=%d: tile=%v DotRows=%v", sp, ar, c, got, want)
				}
			}
		}
	}
}

func TestMulTileEmpty(t *testing.T) {
	a := randDense(rand.New(rand.NewSource(36)), 3, 8)
	MulTile(a, nil, a, 0, 3, nil, 3)      // no rows
	MulTile(a, []int{0}, a, 2, 2, nil, 0) // empty column window
}

// BenchmarkMulTile prices the blocked tile against the equivalent scalar
// row-at-a-time loop — the microbench half of BENCH_kernel.json.
func BenchmarkMulTile(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	const m, n, nrows = 512, 256, 16
	a := randDense(rng, m, n)
	rows := make([]int, nrows)
	for i := range rows {
		rows[i] = (i * 31) % m
	}
	dst := make([]float64, nrows*m)
	b.Run("tile", func(b *testing.B) {
		b.SetBytes(int64(8 * nrows * m * n))
		for i := 0; i < b.N; i++ {
			MulTile(a, rows, a, 0, m, dst, m)
		}
	})
	b.Run("rowloop", func(b *testing.B) {
		b.SetBytes(int64(8 * nrows * m * n))
		for i := 0; i < b.N; i++ {
			for r, ar := range rows {
				x := a.DenseRow(ar)
				out := dst[r*m:]
				for c := 0; c < m; c++ {
					out[c] = Dot(x, a.DenseRow(c))
				}
			}
		}
	})
}
