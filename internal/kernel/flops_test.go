package kernel

import (
	"math/rand"
	"testing"

	"casvm/internal/la"
)

// TestCrossRowFlopAccounting pins the flop charges for both storage
// kinds. Dense a charges the dense bound (n + nnzJ)·m + m; sparse a must
// charge its actual stored nonzeros — a.NNZ() + (nnzJ+1)·m — not the
// dense Features()·m upper bound the seed used.
func TestCrossRowFlopAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := RBF(0.2)

	dense := denseMat(rng, 40, 7)
	sparse := sparseMat(rng, 40, 50, 0.2)
	dst := make([]float64, 40)

	j := 3
	// Dense a × dense b: (n + n)·m + m.
	m, n := dense.Rows(), dense.Features()
	if got, want := p.CrossRow(dense, dense, j, dst), float64((n+n)*m+m); got != want {
		t.Errorf("dense×dense: flops=%v want %v", got, want)
	}

	// Sparse a × sparse b: a.NNZ() + (nnzJ+1)·m, strictly below the dense
	// bound for any genuinely sparse a.
	ji, _ := sparse.SparseRow(j)
	nnzJ := len(ji)
	m = sparse.Rows()
	want := float64(sparse.NNZ() + (nnzJ+1)*m)
	if got := p.CrossRow(sparse, sparse, j, dst); got != want {
		t.Errorf("sparse×sparse: flops=%v want %v", got, want)
	}
	denseBound := float64((sparse.Features()+nnzJ)*m + m)
	if want >= denseBound {
		t.Fatalf("test matrix not sparse enough: nnz charge %v !< dense bound %v", want, denseBound)
	}

	// Mixed sparse a × dense b row: same nnz-based a-side charge.
	db := denseMat(rng, 10, 50)
	want = float64(sparse.NNZ() + (db.Features()+1)*m)
	if got := p.CrossRow(sparse, db, 2, dst); got != want {
		t.Errorf("sparse×dense: flops=%v want %v", got, want)
	}
}

// TestRowVsCrossRowSparseConsistency: K(i,·) computed via Row and via
// CrossRow(a, a, i) must agree in values, and both must charge nnz-based
// (not dense-bound) flops for sparse inputs.
func TestRowVsCrossRowSparseConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := sparseMat(rng, 60, 30, 0.25)
	p := RBF(0.15)
	r1 := make([]float64, 60)
	r2 := make([]float64, 60)
	fRow := p.Row(a, 5, r1)
	fCross := p.CrossRow(a, a, 5, r2)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("row[%d]: %v vs %v", i, r1[i], r2[i])
		}
	}
	if fRow <= 0 || fCross <= 0 {
		t.Fatal("flops must be positive")
	}
	bound := float64(2*a.Features()*a.Rows() + a.Rows())
	if fRow >= bound || fCross >= bound {
		t.Errorf("sparse charges (%v, %v) should undercut dense bound %v", fRow, fCross, bound)
	}
}

// TestEvalMixedStorageAllocFree proves the mixed dense/sparse paths reuse
// pooled scratch instead of allocating per evaluation (the predict path
// calls Eval millions of times).
func TestEvalMixedStorageAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := sparseMat(rng, 30, 16, 0.4)
	b := denseMat(rng, 30, 16)
	a.EnsureNorms()
	b.EnsureNorms()
	for _, p := range []Params{RBF(0.2), {Kind: Linear}} {
		p := p
		// Warm the pool, then demand steady-state zero allocations.
		p.Eval(a, 0, b, 0)
		allocs := testing.AllocsPerRun(200, func() {
			p.Eval(a, 1, b, 2)
		})
		if allocs != 0 {
			t.Errorf("kind=%v: Eval allocates %v/op, want 0", p.Kind, allocs)
		}
	}
	dst := make([]float64, a.Rows())
	p := RBF(0.2)
	p.CrossRow(a, b, 0, dst)
	allocs := testing.AllocsPerRun(200, func() {
		p.CrossRow(a, b, 1, dst)
	})
	if allocs != 0 {
		t.Errorf("CrossRow mixed allocates %v/op, want 0", allocs)
	}
	// Sparse×sparse (Dis-SMO's remote column on sparse data): the scattered
	// fill's tables are pooled like the densify buffer above.
	sb := sparseMat(rng, 30, 16, 0.4)
	sb.EnsureNorms()
	p.CrossRow(a, sb, 0, dst)
	allocs = testing.AllocsPerRun(2000, func() {
		p.CrossRow(a, sb, 1, dst)
	})
	if allocs != 0 {
		t.Errorf("CrossRow sparse×sparse allocates %v/op, want 0", allocs)
	}
}

var sinkRow []float64

// mixed-path correctness guard: pooled scratch must not leak values
// between evaluations with different widths.
func TestScratchWidthIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	wide := denseMat(rng, 5, 64)
	narrow := denseMat(rng, 5, 8)
	spWide := sparseMat(rng, 5, 64, 0.5)
	spNarrow := sparseMat(rng, 5, 8, 0.5)
	p := Params{Kind: Linear}
	for trial := 0; trial < 50; trial++ {
		gotW := p.Eval(spWide, trial%5, wide, (trial+1)%5)
		wantW := la.Dot(rowDense(spWide, trial%5), wide.DenseRow((trial+1)%5))
		if !close2(gotW, wantW) {
			t.Fatalf("wide eval %v want %v", gotW, wantW)
		}
		gotN := p.Eval(spNarrow, trial%5, narrow, (trial+2)%5)
		wantN := la.Dot(rowDense(spNarrow, trial%5), narrow.DenseRow((trial+2)%5))
		if !close2(gotN, wantN) {
			t.Fatalf("narrow eval %v want %v", gotN, wantN)
		}
	}
}

func rowDense(a *la.Matrix, i int) []float64 {
	buf := make([]float64, a.Features())
	return a.RowInto(i, buf)
}

func close2(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
