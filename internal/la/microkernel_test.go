package la

import (
	"math"
	"math/rand"
	"testing"
)

// Naive reference forms of the unrolled micro-kernels. The unrolled
// versions use 4-way accumulators, so sums may differ from the naive
// left-to-right order by a few ulps — the tests allow a relative 1e-12.

func naiveDot(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// naiveSqDist is the difference form Σ(a−b)², zero-padding the shorter.
func naiveSqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	for i := n; i < len(a); i++ {
		s += a[i] * a[i]
	}
	for i := n; i < len(b); i++ {
		s += b[i] * b[i]
	}
	return s
}

func naiveAxpy(alpha float64, x, y []float64) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

func naiveSpDot(ai []int32, av []float64, bi []int32, bv []float64) float64 {
	var s float64
	i, j := 0, 0
	for i < len(ai) && j < len(bi) {
		switch {
		case ai[i] == bi[j]:
			s += av[i] * bv[j]
			i++
			j++
		case ai[i] < bi[j]:
			i++
		default:
			j++
		}
	}
	return s
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randSparse draws a sorted sparse vector over [0, dim) with roughly the
// given density, occasionally with long contiguous index runs (the aligned
// fast-path case).
func randSparseVec(rng *rand.Rand, dim int, density float64, runs bool) ([]int32, []float64) {
	var idx []int32
	var val []float64
	i := 0
	for i < dim {
		if runs && rng.Intn(6) == 0 {
			runLen := 1 + rng.Intn(12)
			for k := 0; k < runLen && i < dim; k++ {
				idx = append(idx, int32(i))
				val = append(val, rng.NormFloat64())
				i++
			}
			i += rng.Intn(5)
			continue
		}
		if rng.Float64() < density {
			idx = append(idx, int32(i))
			val = append(val, rng.NormFloat64())
		}
		i++
	}
	return idx, val
}

func TestDotMatchesNaiveAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 0; n <= 67; n++ {
		a, b := randVec(rng, n), randVec(rng, n)
		if got, want := Dot(a, b), naiveDot(a, b); !almostEq(got, want, 1e-12) {
			t.Fatalf("n=%d: Dot=%v naive=%v", n, got, want)
		}
		// Unequal lengths: common prefix semantics.
		if n > 3 {
			if got, want := Dot(a[:n-3], b), naiveDot(a[:n-3], b); !almostEq(got, want, 1e-12) {
				t.Fatalf("n=%d prefix: Dot=%v naive=%v", n, got, want)
			}
		}
	}
}

func TestSqDistMatchesNaiveAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n <= 67; n++ {
		a, b := randVec(rng, n), randVec(rng, n+rng.Intn(3))
		// The norms identity cancels: its error is relative to the norms,
		// not to the distance.
		tol := 1e-12 * (1 + SqNorm(a) + SqNorm(b))
		if got, want := sqDist(a, b), naiveSqDist(a, b); math.Abs(got-want) > tol {
			t.Fatalf("n=%d: SqDist=%v naive=%v", n, got, want)
		}
		if got, want := sqDist(b, a), naiveSqDist(b, a); math.Abs(got-want) > tol {
			t.Fatalf("n=%d swapped: SqDist=%v naive=%v", n, got, want)
		}
	}
}

func TestAxpyMatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 67; n++ {
		x := randVec(rng, n)
		y1 := randVec(rng, n)
		y2 := append([]float64(nil), y1...)
		Axpy(0.37, x, y1)
		naiveAxpy(0.37, x, y2)
		for i := range y1 {
			// Elementwise independent: must be bit-identical, not just close.
			if y1[i] != y2[i] {
				t.Fatalf("n=%d: Axpy[%d]=%v naive=%v", n, i, y1[i], y2[i])
			}
		}
	}
}

func TestSpDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		runs := trial%2 == 0
		ai, av := randSparseVec(rng, 120, 0.3, runs)
		bi, bv := randSparseVec(rng, 120, 0.3, runs)
		got := SpDot(ai, av, bi, bv)
		want := naiveSpDot(ai, av, bi, bv)
		if !almostEq(got, want, 1e-12) {
			t.Fatalf("trial %d: SpDot=%v naive=%v", trial, got, want)
		}
	}
	// Fully aligned vectors exercise only the fast path.
	ai, av := randSparseVec(rng, 256, 1, false)
	bv := randVec(rng, len(av))
	got := SpDot(ai, av, ai, bv)
	want := naiveSpDot(ai, av, ai, bv)
	if !almostEq(got, want, 1e-12) {
		t.Fatalf("aligned: SpDot=%v naive=%v", got, want)
	}
}
