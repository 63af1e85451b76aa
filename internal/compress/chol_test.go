package compress

import (
	"math"
	"testing"
)

// TestCholSolveRefusesSingular: a matrix with a non-positive pivot makes
// cholSolve return false before it touches b, which is the raw-projection
// fallback reducedSetWeights relies on. A positive definite one solves.
func TestCholSolveRefusesSingular(t *testing.T) {
	for _, a := range [][]float64{
		{1, 1, 1, 1}, // rank one: the second pivot is 0
		{0, 0, 0, 0}, // the first pivot is 0
		{1, 2, 2, 1}, // indefinite: the second pivot is −3
	} {
		b := []float64{3, -5}
		if cholSolve(append([]float64(nil), a...), b, 2) {
			t.Fatalf("A=%v: factorised a matrix with a non-positive pivot", a)
		}
		if b[0] != 3 || b[1] != -5 {
			t.Fatalf("A=%v: refused solve wrote b = %v", a, b)
		}
	}
	b := []float64{6, 5}
	if !cholSolve([]float64{4, 1, 1, 3}, b, 2) {
		t.Fatal("refused a positive definite matrix")
	}
	// [4 1; 1 3]·[13/11, 14/11] = [6, 5].
	if math.Abs(b[0]-13.0/11) > 1e-12 || math.Abs(b[1]-14.0/11) > 1e-12 {
		t.Fatalf("x = %v, want [13/11 14/11]", b)
	}
}
