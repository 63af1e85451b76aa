package kernel

import (
	"math/rand"
	"testing"

	"casvm/internal/la"
)

// TestRowVsCrossRowSparseConsistency: on sparse data K(i,·) reads the same
// through the oracle Row, a lazy RowCache miss and the one-column CrossTile
// of a Dis-SMO column K(·, i), and the miss charges the stored entries of
// the row (2·nnz·m + m, the oracle's charge), not the dense bound.
func TestRowVsCrossRowSparseConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := sparseMat(rng, 60, 30, 0.25)
	p := RBF(0.15)
	oracle := make([]float64, 60)
	fRow := p.Row(a, 5, oracle)
	lazy := NewRowCache(p, a, 2)
	row := lazy.Row(5)
	col := make([]float64, 60)
	column(p, a, a, 5, col)
	for i := range oracle {
		if row[i] != oracle[i] || col[i] != oracle[i] {
			t.Fatalf("row[%d]: cache %v, column %v, oracle %v", i, row[i], col[i], oracle[i])
		}
	}
	bound := float64(2*a.Features()*a.Rows() + a.Rows())
	if _, _, f := lazy.Stats(); f <= 0 || f != fRow || f >= bound {
		t.Errorf("sparse miss charged %v, want the oracle's %v below the dense bound %v", f, fRow, bound)
	}
}

// TestEvalMixedStorageAllocFree proves the mixed dense/sparse Eval reuses
// pooled scratch instead of allocating per evaluation (the predict path
// calls Eval millions of times), and that a sparse one-column CrossTile — a
// Dis-SMO column — does too.
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
	// Sparse×sparse (Dis-SMO's remote column on sparse data): the scattered
	// fill's tables are pooled like Eval's densify buffer.
	dst := make([]float64, a.Rows())
	rows := allRows(a.Rows())
	p := RBF(0.2)
	sb := sparseMat(rng, 30, 16, 0.4)
	sb.EnsureNorms()
	p.CrossTile(a, rows, sb, 0, 1, dst, 1)
	allocs := testing.AllocsPerRun(2000, func() {
		p.CrossTile(a, rows, sb, 1, 2, dst, 1)
	})
	if allocs != 0 {
		t.Errorf("sparse×sparse CrossTile column allocates %v/op, want 0", allocs)
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
