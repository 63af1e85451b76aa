package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"casvm/internal/la"
)

func denseMat(rng *rand.Rand, m, n int) *la.Matrix {
	d := make([]float64, m*n)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return la.NewDense(m, n, d)
}

func sparseMat(rng *rand.Rand, m, n int, density float64) *la.Matrix {
	rp := make([]int32, m+1)
	var ix []int32
	var vx []float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				ix = append(ix, int32(j))
				vx = append(vx, rng.NormFloat64())
			}
		}
		rp[i+1] = int32(len(ix))
	}
	return la.NewSparse(m, n, rp, ix, vx)
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{Linear, Polynomial, Gaussian, Sigmoid} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("roundtrip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseKind("fourier"); err == nil {
		t.Error("unknown kind should fail")
	}
	if got, _ := ParseKind("rbf"); got != Gaussian {
		t.Error("rbf alias should parse to Gaussian")
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{Kind: Gaussian}).Validate(); err == nil {
		t.Error("gaussian with gamma=0 should fail")
	}
	if err := RBF(0.5).Validate(); err != nil {
		t.Errorf("valid rbf failed: %v", err)
	}
	if err := (Params{Kind: Kind(99)}).Validate(); err == nil {
		t.Error("bad kind should fail")
	}
	if err := (Params{Kind: Polynomial, Degree: -1}).Validate(); err == nil {
		t.Error("negative degree should fail")
	}
}

func TestEvalKnownValues(t *testing.T) {
	a := la.NewDense(2, 2, []float64{1, 0, 0, 1})
	// linear: <e1,e2> = 0
	if got := (Params{Kind: Linear}).Eval(a, 0, a, 1); got != 0 {
		t.Errorf("linear=%v", got)
	}
	// gaussian: exp(-γ·2)
	p := RBF(0.5)
	if got := p.Eval(a, 0, a, 1); !almostEq(got, math.Exp(-1), 1e-12) {
		t.Errorf("gaussian=%v want %v", got, math.Exp(-1))
	}
	if got := p.Eval(a, 0, a, 0); got != 1 {
		t.Errorf("gaussian self=%v want 1", got)
	}
	// polynomial (a=1, r=1, d=2): (0+1)^2 = 1
	pp := Params{Kind: Polynomial, Coef: 1, Degree: 2}
	if got := pp.Eval(a, 0, a, 1); got != 1 {
		t.Errorf("poly=%v", got)
	}
	// sigmoid: tanh(1·1+0) on <e1,e1>
	ps := Params{Kind: Sigmoid}
	if got := ps.Eval(a, 0, a, 0); !almostEq(got, math.Tanh(1), 1e-12) {
		t.Errorf("sigmoid=%v", got)
	}
}

func TestIntPow(t *testing.T) {
	if intPow(2, 10) != 1024 {
		t.Errorf("2^10=%v", intPow(2, 10))
	}
	if intPow(3, 0) != 1 {
		t.Errorf("3^0=%v", intPow(3, 0))
	}
	if intPow(-2, 3) != -8 {
		t.Errorf("(-2)^3=%v", intPow(-2, 3))
	}
}

func TestDefaultDegreeAndScale(t *testing.T) {
	p := Params{Kind: Polynomial}
	// defaults: a=1, d=3, r=0 -> dot^3
	a := la.NewDense(2, 1, []float64{2, 3})
	if got := p.Eval(a, 0, a, 1); got != 216 {
		t.Errorf("default poly=%v want 216", got)
	}
}

func TestRowAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mat := range []*la.Matrix{denseMat(rng, 12, 5), sparseMat(rng, 12, 5, 0.5)} {
		for _, p := range []Params{{Kind: Linear}, RBF(0.3), {Kind: Polynomial, Coef: 1, Degree: 2}, {Kind: Sigmoid, Coef: -0.5}} {
			dst := make([]float64, 12)
			flops := p.Row(mat, 3, dst)
			if flops <= 0 {
				t.Errorf("%v: flops=%v", p.Kind, flops)
			}
			for j := range dst {
				want := p.Eval(mat, 3, mat, j)
				if !almostEq(dst[j], want, 1e-9) {
					t.Errorf("%v sparse=%v: Row[%d]=%v want %v", p.Kind, mat.Sparse(), j, dst[j], want)
				}
			}
		}
	}
}

func TestEvalCrossMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	de := denseMat(rng, 6, 4)
	// Make sparse copy.
	sp := sparseFromDense(de)
	for _, p := range []Params{{Kind: Linear}, RBF(0.7)} {
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				same := p.Eval(de, i, de, j)
				cross := p.Eval(de, i, sp, j)
				crossSp := p.Eval(sp, i, de, j)
				spSp := p.Eval(sp, i, sp, j)
				if !almostEq(same, cross, 1e-9) || !almostEq(same, crossSp, 1e-9) || !almostEq(same, spSp, 1e-9) {
					t.Fatalf("%v cross-matrix mismatch at %d,%d: %v %v %v %v", p.Kind, i, j, same, cross, crossSp, spSp)
				}
			}
		}
	}
}

func sparseFromDense(de *la.Matrix) *la.Matrix {
	m, n := de.Rows(), de.Features()
	rp := make([]int32, m+1)
	var ix []int32
	var vx []float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := de.At(i, j)
			if v != 0 {
				ix = append(ix, int32(j))
				vx = append(vx, v)
			}
		}
		rp[i+1] = int32(len(ix))
	}
	return la.NewSparse(m, n, rp, ix, vx)
}

// Property: kernels are symmetric; the Gaussian kernel is in (0, 1].
func TestKernelProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	mat := denseMat(rng, 10, 4)
	p := RBF(0.9)
	f := func(iu, ju uint8) bool {
		i, j := int(iu)%10, int(ju)%10
		kij := p.Eval(mat, i, mat, j)
		kji := p.Eval(mat, j, mat, i)
		if !almostEq(kij, kji, 1e-12) {
			return false
		}
		return kij > 0 && kij <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestRowCacheLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	mat := denseMat(rng, 8, 3)
	c := NewRowCache(RBF(0.5), mat, 3)
	r0 := append([]float64{}, c.Row(0)...)
	c.Row(1)
	c.Row(2)
	if h, m, _ := c.Stats(); h != 0 || m != 3 {
		t.Fatalf("stats after fills: h=%d m=%d", h, m)
	}
	c.Row(0) // hit
	if h, _, _ := c.Stats(); h != 1 {
		t.Fatal("expected a hit")
	}
	c.Row(3) // evicts 1 (LRU)
	c.Row(1) // miss again
	if _, m, _ := c.Stats(); m != 5 {
		t.Fatalf("misses=%d want 5", m)
	}
	// Values stay correct after eviction/reuse.
	got := c.Row(0)
	for j := range got {
		if !almostEq(got[j], r0[j], 1e-12) {
			t.Fatal("row content corrupted by buffer reuse")
		}
	}
	if c.lru.used != 3 {
		t.Fatalf("cached rows=%d want 3", c.lru.used)
	}
}

func TestRowCacheMinCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	mat := denseMat(rng, 4, 2)
	c := NewRowCache(RBF(1), mat, 0)
	c.Row(0)
	c.Row(1)
	if c.lru.used != 2 {
		t.Fatalf("min capacity should be 2, cached rows=%d", c.lru.used)
	}
}

func TestRowCacheDiagAndFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mat := denseMat(rng, 4, 2)
	c := NewRowCache(RBF(1), mat, 4)
	if c.Diag(2) != 1 {
		t.Error("gaussian diag must be 1")
	}
	c.Row(0)
	if _, _, f := c.Stats(); f <= 0 {
		t.Error("flops should accumulate on miss")
	}
	lin := NewRowCache(Params{Kind: Linear}, mat, 4)
	want := la.SqNorm(mat.DenseRow(2))
	if got := lin.Diag(2); !almostEq(got, want, 1e-12) {
		t.Errorf("linear diag=%v want %v", got, want)
	}
}

func TestCrossRowAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := denseMat(rng, 15, 6)
	bsp := sparseMat(rng, 9, 6, 0.5)
	bde := denseMat(rng, 9, 6)
	asp := sparseMat(rng, 15, 6, 0.5)
	dst := make([]float64, 15)
	for _, p := range []Params{{Kind: Linear}, RBF(0.4), {Kind: Sigmoid, Coef: 0.2}} {
		for _, pair := range []struct{ A, B *la.Matrix }{
			{a, bde}, {a, bsp}, {asp, bsp}, {asp, bde},
			{sparseMat(rng, 15, 2048, 0.02), sparseMat(rng, 9, 2048, 0.02)},
		} {
			for j := 0; j < pair.B.Rows(); j++ {
				flops := p.CrossRow(pair.A, pair.B, j, dst)
				if flops <= 0 {
					t.Fatalf("%v: flops=%v", p.Kind, flops)
				}
				for i := 0; i < pair.A.Rows(); i++ {
					want := p.Eval(pair.A, i, pair.B, j)
					// Sparse×sparse is the scattered fill against Eval's
					// merge: the contract there is bit-identity.
					bitwise := pair.A.Sparse() && pair.B.Sparse()
					if !almostEq(dst[i], want, 1e-9) || bitwise && dst[i] != want {
						t.Fatalf("%v A.sparse=%v B.sparse=%v: [%d,%d]=%v want %v",
							p.Kind, pair.A.Sparse(), pair.B.Sparse(), i, j, dst[i], want)
					}
				}
			}
		}
	}
}

func TestFromDotAllKinds(t *testing.T) {
	a := la.NewDense(2, 2, []float64{1, 2, 3, 4})
	// Exercise scaleA and degree defaults plus explicit values.
	p := Params{Kind: Sigmoid, ScaleA: 2, Coef: -1}
	want := math.Tanh(2*(1*3+2*4) - 1)
	if got := p.Eval(a, 0, a, 1); !almostEq(got, want, 1e-12) {
		t.Errorf("sigmoid scaled=%v want %v", got, want)
	}
	pp := Params{Kind: Polynomial, ScaleA: 0.5, Coef: 2, Degree: 1}
	wantP := 0.5*11 + 2
	if got := pp.Eval(a, 0, a, 1); !almostEq(got, wantP, 1e-12) {
		t.Errorf("poly scaled=%v want %v", got, wantP)
	}
}

// raggedSparse builds CSR rows of very different lengths: an empty row, two
// 8-long aligned runs sharing no index, a row straddling both, then random
// rows at random densities.
func raggedSparse(rng *rand.Rand, m, n int) *la.Matrix {
	fixed := [][]int32{
		{},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{8, 9, 10, 11, 12, 13, 14, 15},
		{1, 2, 3, 4, 9, 20},
	}
	rp := make([]int32, 1, m+1)
	var ix []int32
	var vx []float64
	for i := 0; i < m; i++ {
		if i < len(fixed) {
			ix = append(ix, fixed[i]...)
		} else {
			density := rng.Float64()
			for j := 0; j < n; j++ {
				if rng.Float64() < density {
					ix = append(ix, int32(j))
				}
			}
		}
		for len(vx) < len(ix) {
			vx = append(vx, rng.NormFloat64())
		}
		rp = append(rp, int32(len(ix)))
	}
	return la.NewSparse(m, n, rp, ix, vx)
}

// TestKernelBitwiseSymmetric pins the precondition of RowCache's symmetric
// fill: K(i, j) and K(j, i) are the same float64, bit for bit, through every
// recipe that can produce a cached entry or stand in for one — the tile
// fills (dense and scattered-sparse), CrossRow against the matrix itself,
// and Eval with and without cached norms — for all four kinds.
func TestKernelBitwiseSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mats := []struct {
		name  string
		build func() *la.Matrix // fresh per kind: Eval is first tried before any norm is cached
	}{
		{"dense-11", func() *la.Matrix { return denseMat(rng, 23, 11) }},
		{"dense-4", func() *la.Matrix { return denseMat(rng, 9, 4) }},
		{"sparse-ragged", func() *la.Matrix { return raggedSparse(rng, 23, 24) }},
	}
	bits := math.Float64bits
	for _, mat := range mats {
		name := mat.name
		for _, p := range tileKinds {
			a := mat.build()
			m := a.Rows()
			evalSymmetric := func(when string) {
				for i := 0; i < m; i++ {
					for j := 0; j < i; j++ {
						if x, y := p.Eval(a, i, a, j), p.Eval(a, j, a, i); bits(x) != bits(y) {
							t.Fatalf("%s %v %s: Eval(%d,%d)=%x but Eval(%d,%d)=%x", name, p.Kind, when, i, j, bits(x), j, i, bits(y))
						}
					}
				}
			}
			evalSymmetric("without norms")
			a.EnsureNorms()
			evalSymmetric("with norms")

			rows := make([]int, m)
			k := make([][]float64, m)
			for i := range rows {
				rows[i], k[i] = i, make([]float64, m)
			}
			p.Tile(a, rows, k, allCols(m), 1)
			col := make([]float64, m)
			for j := 0; j < m; j++ {
				p.CrossRow(a, a, j, col)
				for i := 0; i < m; i++ {
					if bits(k[i][j]) != bits(k[j][i]) {
						t.Fatalf("%s %v: Row(%d)[%d]=%x but Row(%d)[%d]=%x", name, p.Kind, i, j, bits(k[i][j]), j, i, bits(k[j][i]))
					}
					if bits(col[i]) != bits(k[j][i]) {
						t.Fatalf("%s %v: CrossRow(x,x,%d)[%d]=%x but Row(%d)[%d]=%x", name, p.Kind, j, i, bits(col[i]), j, i, bits(k[j][i]))
					}
				}
			}
		}
	}
}
