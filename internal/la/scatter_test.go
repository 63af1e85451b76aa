package la

import (
	"math"
	"math/rand"
	"testing"
)

// sparseRowCase draws a sorted sparse row over [0, n) in one of the shapes
// the scattered gather has to get right: plain random, with contiguous index
// runs, empty, with entries at feature 0 and n-1, and with stored zeros.
func sparseRowCase(rng *rand.Rand, n int, density float64, flavor int) ([]int32, []float64) {
	if flavor%7 == 2 {
		return nil, nil
	}
	idx, val := randSparseVec(rng, n, density, flavor%2 == 1)
	if flavor%3 == 0 {
		if len(idx) == 0 || idx[0] != 0 {
			idx = append([]int32{0}, idx...)
			val = append([]float64{rng.NormFloat64()}, val...)
		}
		if idx[len(idx)-1] != int32(n-1) {
			idx = append(idx, int32(n-1))
			val = append(val, rng.NormFloat64())
		}
	}
	if flavor%4 == 1 {
		for k := range val {
			if rng.Intn(10) == 0 {
				val[k] = 0
			}
		}
	}
	return idx, val
}

// plantRun rewrites (bi, bv) so that it shares a window of ai as consecutive
// stored entries — a guaranteed aligned run of the window's length between
// the two rows, which random rows at low density almost never produce.
func plantRun(rng *rand.Rand, ai []int32, bi []int32, bv []float64) ([]int32, []float64) {
	if len(ai) == 0 {
		return bi, bv
	}
	k := rng.Intn(len(ai))
	win := ai[k:min(len(ai), k+1+rng.Intn(17))]
	lo, hi := win[0], win[len(win)-1]
	var oi []int32
	var ov []float64
	planted := false
	for j, f := range bi {
		if f > hi && !planted {
			planted = true
			for _, w := range win {
				oi = append(oi, w)
				ov = append(ov, rng.NormFloat64())
			}
		}
		if f < lo || f > hi {
			oi = append(oi, f)
			ov = append(ov, bv[j])
		}
	}
	if !planted {
		for _, w := range win {
			oi = append(oi, w)
			ov = append(ov, rng.NormFloat64())
		}
	}
	return oi, ov
}

// TestScatteredRowMatchesSpDotBitwise is the primitive's contract: over the
// densities and row shapes the fills see, the gather equals the merge bit for
// bit (accumulator grouping included), in either argument order. One scratch
// serves every row in turn, so a position Release left behind would match a
// later column and break the equality.
func TestScatteredRowMatchesSpDotBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2101))
	var s ScatteredRow
	pairs := 0
	for _, n := range []int{2048, 37} {
		for _, density := range []float64{0.02, 0.3, 0.9} {
			for trial := 0; trial < 42; trial++ {
				ai, av := sparseRowCase(rng, n, density, trial)
				s.Set(n, ai, av)
				for c := 0; c < 100; c++ {
					bi, bv := sparseRowCase(rng, n, density, trial+c)
					if c%3 == 0 {
						bi, bv = plantRun(rng, ai, bi, bv)
					}
					got := math.Float64bits(s.Dot(bi, bv))
					if want := math.Float64bits(SpDot(ai, av, bi, bv)); got != want {
						t.Fatalf("n=%d density=%g trial=%d col=%d: scattered %x, SpDot(a,b) %x",
							n, density, trial, c, got, want)
					}
					if want := math.Float64bits(SpDot(bi, bv, ai, av)); got != want {
						t.Fatalf("n=%d density=%g trial=%d col=%d: scattered %x, SpDot(b,a) %x",
							n, density, trial, c, got, want)
					}
					pairs++
				}
			}
		}
	}
	if pairs < 20000 {
		t.Fatalf("only %d pairs checked", pairs)
	}
	s.Release()
	for f, p := range s.pos[:cap(s.pos)] {
		if p != 0 {
			t.Fatalf("pos[%d] = %d after Release", f, p)
		}
	}
}

// TestScatteredRowSelfAndAligned covers the all-fast-path extreme: a row
// against itself and against rows sharing its whole index set.
func TestScatteredRowSelfAndAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(2102))
	var s ScatteredRow
	for _, nnz := range []int{0, 1, 3, 4, 5, 8, 9, 255, 256} {
		ai, av := randSparseVec(rng, 4*nnz+1, 0.25, true)
		if len(ai) > nnz {
			ai, av = ai[:nnz], av[:nnz]
		}
		s.Set(4*nnz+1, ai, av)
		bv := randVec(rng, len(ai))
		for _, v := range [][]float64{av, bv} {
			got, want := s.Dot(ai, v), SpDot(ai, av, ai, v)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("nnz=%d: scattered %v, SpDot %v", len(ai), got, want)
			}
		}
	}
}

// BenchmarkSpDotFill prices one kernel-row fill's inner products — a fixed
// row against 200 columns — as the two-pointer merge per column and as one
// scatter plus a gather per column. "aligned" is the row against columns
// that share its exact index set (a row against itself), the one shape where
// the merge's peeled fast path wins; no fill has it.
func BenchmarkSpDotFill(b *testing.B) {
	const cols = 200
	for _, bc := range []struct {
		name    string
		n       int
		density float64
		aligned bool
	}{
		{"d02", 2048, 0.02, false},
		{"d30", 2048, 0.30, false},
		{"d90", 2048, 0.90, false},
		{"aligned", 2048, 0.30, true},
		{"ultra", 1 << 20, 0, false}, // 21 stored entries per row
	} {
		rng := rand.New(rand.NewSource(77))
		draw := func() ([]int32, []float64) {
			if bc.density > 0 {
				return randSparseVec(rng, bc.n, bc.density, false)
			}
			// One entry per equal-width stripe: sorted and distinct by
			// construction.
			idx := make([]int32, 21)
			stripe := bc.n / len(idx)
			for k := range idx {
				idx[k] = int32(k*stripe + rng.Intn(stripe))
			}
			return idx, randVec(rng, len(idx))
		}
		ai, av := draw()
		ci := make([][]int32, cols)
		cv := make([][]float64, cols)
		for c := range ci {
			if bc.aligned {
				ci[c], cv[c] = ai, randVec(rng, len(ai))
			} else {
				ci[c], cv[c] = draw()
			}
		}
		b.Run(bc.name+"/merge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for c := range ci {
					benchSink += SpDot(ai, av, ci[c], cv[c])
				}
			}
		})
		b.Run(bc.name+"/scattered", func(b *testing.B) {
			var s ScatteredRow
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Set(bc.n, ai, av)
				for c := range ci {
					benchSink += s.Dot(ci[c], cv[c])
				}
				s.Release()
			}
		})
	}
}
