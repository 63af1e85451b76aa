package la

import (
	"math"
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
				if got, want := dst[r*a.Rows()+c], rowDot(a, ar, c); got != want {
					t.Fatalf("sp=%v r=%d c=%d: tile=%v rowDot=%v", sp, ar, c, got, want)
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

// sqDistRef is the scalar nearest-center distance SqDistTile replaced:
// max(0, ‖a_i‖² + ‖b_c‖² − 2·dot), the dot being the scalar primitive of the
// storage pairing (DotVec whenever b is dense).
func sqDistRef(a *Matrix, i int, b *Matrix, c int, buf []float64) float64 {
	return max(0, a.SqNormRow(i)+b.SqNormRow(c)-2*refDot(a, i, b, c, buf))
}

// TestSqDistTileMatchesScalar holds the distance block, and SqDistEach's
// walk over it, to the scalar expression bit for bit in all four storage
// pairings, at row counts around the 4-row panel and the 16-row walk block,
// with column windows that start past 0 and ld wider than the window.
func TestSqDistTileMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n, k = 23, 7
	for _, aSp := range []bool{false, true} {
		for _, bSp := range []bool{false, true} {
			for _, m := range []int{1, 4, 15, 16, 17, 63, 64, 65, 131} {
				mk := func(rows int, sp bool) *Matrix {
					if sp {
						return randSparse(rng, rows, n, 0.35)
					}
					return randDense(rng, rows, n)
				}
				a, b := mk(m, aSp), mk(k, bSp)
				buf := make([]float64, n)
				rows := rng.Perm(m)
				clo, chi := 1, k
				ld := chi - clo + 2
				dst := make([]float64, m*ld)
				for i := range dst {
					dst[i] = -1 // the padding past the window must stay untouched
				}
				SqDistTile(a, rows, b, clo, chi, dst, ld)
				for r, i := range rows {
					for c := clo; c < chi; c++ {
						got, want := dst[r*ld+c-clo], sqDistRef(a, i, b, c, buf)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("aSp=%v bSp=%v m=%d row %d col %d: tile %v, scalar %v",
								aSp, bSp, m, i, c, got, want)
						}
					}
					for pad := chi - clo; pad < ld; pad++ {
						if dst[r*ld+pad] != -1 {
							t.Fatalf("aSp=%v bSp=%v m=%d: padding written", aSp, bSp, m)
						}
					}
				}
				next := 0
				SqDistEach(a, b, func(i int, d []float64) {
					if i != next || len(d) != k {
						t.Fatalf("aSp=%v bSp=%v m=%d: visit %d with %d distances, want %d with %d",
							aSp, bSp, m, i, len(d), next, k)
					}
					next++
					for c, got := range d {
						if want := sqDistRef(a, i, b, c, buf); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("aSp=%v bSp=%v m=%d: SqDistEach row %d col %d: %v, scalar %v",
								aSp, bSp, m, i, c, got, want)
						}
					}
				})
				if next != m {
					t.Fatalf("aSp=%v bSp=%v m=%d: SqDistEach visited %d rows", aSp, bSp, m, next)
				}
			}
		}
	}
}

// TestArgMinLowestIndex pins the one nearest-center rule: the smallest value
// wins, a tie goes to the lowest index, NaN never wins, and a slice with
// nothing below +Inf answers 0.
func TestArgMinLowestIndex(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		d    []float64
		want int
	}{
		{[]float64{3, 1, 2}, 1},
		{[]float64{2, 0, 5, 0}, 1},
		{[]float64{0, 0}, 0},
		{[]float64{nan, 4, nan, 4}, 1},
		{[]float64{inf, inf}, 0},
		{[]float64{nan}, 0},
	} {
		if got := ArgMin(tc.d); got != tc.want {
			t.Errorf("ArgMin(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestSqDistTileClampsAtZero: between these two 1-feature points the norms
// identity rounds to −4.4e-16. The clamp reads it as 0 in every pairing, so
// a point ties at 0 with its exact copy, and ArgMin takes the lower index:
// the copy, where the unclamped value would have picked the other point.
func TestSqDistTileClampsAtZero(t *testing.T) {
	p, q := 1.000000008468023, 1.000000016969414
	if p*p+q*q-2*(p*q) >= 0 {
		t.Fatal("the identity no longer rounds below zero here")
	}
	dense := NewDense(2, 1, []float64{p, q})
	sparse := NewSparse(2, 1, []int32{0, 1, 2}, []int32{0, 0}, []float64{p, q})
	for _, a := range []*Matrix{dense, sparse} {
		for _, b := range []*Matrix{dense, sparse} {
			d := make([]float64, 2)
			SqDistTile(a, []int{0}, b, 0, 2, d, 2)
			if math.Float64bits(d[0]) != 0 || math.Float64bits(d[1]) != 0 {
				t.Errorf("aSp=%v bSp=%v: distances %v, want +0 +0", a.Sparse(), b.Sparse(), d)
			}
			if ArgMin(d) != 0 {
				t.Errorf("aSp=%v bSp=%v: ArgMin %d, want 0", a.Sparse(), b.Sparse(), ArgMin(d))
			}
		}
	}
}

// TestMulTileSparseSides: a sparse×sparse tile scatters whichever side is
// reused more — its b rows when it has more rows than columns, its a rows
// otherwise — and either way every element is SpDot of the pair bit for bit,
// in both argument orders.
func TestMulTileSparseSides(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{13, 2048} {
		density := 0.35
		if n > 1000 {
			density = 0.02
		}
		a, b := randSparse(rng, 23, n, density), randSparse(rng, 19, n+7, density)
		for _, sh := range []struct {
			rows     []int
			clo, chi int
		}{
			{[]int{4, 0, 22, 4, 9}, 3, 5},                // more rows than columns
			{[]int{1}, 7, 8},                             // one by one
			{[]int{2, 3}, 0, 19},                         // fewer rows than columns
			{[]int{5, 6, 7}, 10, 13},                     // as many
			{allRows(23), 18, 19},                        // a whole block against one row
			{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 9, 10}, // a column of b the rows reach
		} {
			for _, ld := range []int{sh.chi - sh.clo, sh.chi - sh.clo + 2} {
				dst := make([]float64, len(sh.rows)*ld)
				MulTile(a, sh.rows, b, sh.clo, sh.chi, dst, ld)
				for r, i := range sh.rows {
					ai, av := a.SparseRow(i)
					for c := sh.clo; c < sh.chi; c++ {
						bi, bv := b.SparseRow(c)
						got := dst[r*ld+c-sh.clo]
						if want := SpDot(ai, av, bi, bv); got != want || got != SpDot(bi, bv, ai, av) {
							t.Fatalf("n=%d rows=%v [%d,%d) ld=%d: (%d,%d) tile %v, SpDot %v",
								n, sh.rows, sh.clo, sh.chi, ld, i, c, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMulTileSparseDenseWindows holds the sparse×dense tile, whose CSR row
// is walked once per four dense rows (spDenseDot4) and once per row for the
// window's last w%4 columns, to SpDenseDot and its distance to SqDistOf bit
// for bit: at every window width 1–9, at column windows that start past 0,
// with ld wider than the window (the padding stays untouched), and over CSR
// rows that are empty, that end on the last feature, and that run past the
// dense rows' width (a CSR a wider than b: SpDenseDot skips those indices).
func TestMulTileSparseDenseWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const m, bm = 11, 12
	for _, sh := range []struct{ an, bn int }{{29, 29}, {2048, 2048}, {37, 29}} {
		density := 0.35
		if sh.an > 1000 {
			density = 0.02
		}
		a0 := randSparse(rng, m, sh.an, density)
		// Rows 0 and 1 empty, row 2 only the last feature, row 3 the last
		// feature of b and the last of a.
		rp, ix, vx := []int32{0, 0, 0}, []int32{int32(sh.an - 1)}, []float64{rng.NormFloat64()}
		rp = append(rp, 1)
		ix, vx = append(ix, int32(sh.bn-1)), append(vx, rng.NormFloat64())
		if sh.an > sh.bn {
			ix, vx = append(ix, int32(sh.an-1)), append(vx, rng.NormFloat64())
		}
		rp = append(rp, int32(len(ix)))
		for i := 4; i < m; i++ {
			ri, rv := a0.SparseRow(i)
			ix, vx = append(ix, ri...), append(vx, rv...)
			rp = append(rp, int32(len(ix)))
		}
		a, b := NewSparse(m, sh.an, rp, ix, vx), randDense(rng, bm, sh.bn)
		rows := rng.Perm(m)
		for w := 1; w <= 9; w++ {
			for _, clo := range []int{0, bm - w} {
				for _, ld := range []int{w, w + 3} {
					dot, dist := make([]float64, m*ld), make([]float64, m*ld)
					for i := range dot {
						dot[i], dist[i] = -1, -1
					}
					MulTile(a, rows, b, clo, clo+w, dot, ld)
					SqDistTile(a, rows, b, clo, clo+w, dist, ld)
					for r, i := range rows {
						ai, av := a.SparseRow(i)
						for c := 0; c < ld; c++ {
							wantDot, wantDist := -1.0, -1.0
							if c < w {
								wantDot = SpDenseDot(ai, av, b.DenseRow(clo+c))
								wantDist = SqDistOf(a.SqNormRow(i), b.SqNormRow(clo+c), wantDot)
							}
							if got := dot[r*ld+c]; math.Float64bits(got) != math.Float64bits(wantDot) {
								t.Fatalf("%+v w=%d clo=%d ld=%d: MulTile (%d,%d) %v, want %v", sh, w, clo, ld, i, c, got, wantDot)
							}
							if got := dist[r*ld+c]; math.Float64bits(got) != math.Float64bits(wantDist) {
								t.Fatalf("%+v w=%d clo=%d ld=%d: SqDistTile (%d,%d) %v, want %v", sh, w, clo, ld, i, c, got, wantDist)
							}
						}
					}
				}
			}
		}
	}
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
	// One casvm-sparse rank's FCFS walk: its 188 CSR rows of 2,048 features
	// at density 0.02 against the 8 dense centers, in SqDistEach's tiles.
	b.Run("sparse-dense", func(b *testing.B) {
		const sm, sn, k = 188, 2048, 8
		x, centers := randSparse(rng, sm, sn, 0.02), randDense(rng, k, sn)
		out := make([]float64, distBlock*k)
		tile := make([]int, 0, distBlock)
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < sm; lo += distBlock {
				tile = tile[:0]
				for r := lo; r < min(lo+distBlock, sm); r++ {
					tile = append(tile, r)
				}
				MulTile(x, tile, centers, 0, k, out, k)
			}
		}
	})
}
