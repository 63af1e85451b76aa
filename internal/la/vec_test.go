package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDotBasic(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{nil, nil, 0},
		{[]float64{1}, []float64{2}, 2},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{1, 2, 3, 4, 5}, []float64{1, 1, 1, 1, 1}, 15},
		{[]float64{-1, 2}, []float64{3, 4}, 5},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Dot(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotUnrollMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 40; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		var want float64
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			want += a[i] * b[i]
		}
		if got := Dot(a, b); !almostEq(got, want, 1e-12) {
			t.Fatalf("n=%d: Dot=%v want %v", n, got, want)
		}
	}
}

func TestSqDist(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 6, 3}
	if got := SqDist(a, b); !almostEq(got, 25, 1e-12) {
		t.Errorf("SqDist=%v want 25", got)
	}
	if got := SqDist(a, a); got != 0 {
		t.Errorf("SqDist(a,a)=%v want 0", got)
	}
}

func TestSqDistUnequalLengths(t *testing.T) {
	// Shorter vector behaves as zero-padded.
	a := []float64{1, 2}
	b := []float64{1, 2, 3}
	if got := SqDist(a, b); !almostEq(got, 9, 1e-12) {
		t.Errorf("SqDist=%v want 9", got)
	}
	if got := SqDist(b, a); !almostEq(got, 9, 1e-12) {
		t.Errorf("SqDist reversed=%v want 9", got)
	}
}

func TestAxpyScaleFillSum(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy got %v want %v", y, want)
		}
	}
	Scale(0.5, y)
	if y[2] != 3.5 {
		t.Fatalf("Scale got %v", y)
	}
	Fill(y, -1)
	if y[0] != -1 || y[2] != -1 {
		t.Fatalf("Fill got %v", y)
	}
}

func TestSpDot(t *testing.T) {
	ai := []int32{0, 3, 7}
	av := []float64{1, 2, 3}
	bi := []int32{3, 5, 7}
	bv := []float64{4, 9, 5}
	if got := SpDot(ai, av, bi, bv); !almostEq(got, 2*4+3*5, 1e-12) {
		t.Errorf("SpDot=%v want 23", got)
	}
	if got := SpDot(nil, nil, bi, bv); got != 0 {
		t.Errorf("SpDot empty=%v want 0", got)
	}
}

func TestSpDenseDot(t *testing.T) {
	d := []float64{1, 0, 2, 0, 3}
	if got := SpDenseDot([]int32{0, 4}, []float64{10, 10}, d); !almostEq(got, 40, 1e-12) {
		t.Errorf("SpDenseDot=%v want 40", got)
	}
	// Index out of dense range is ignored.
	if got := SpDenseDot([]int32{9}, []float64{100}, d); got != 0 {
		t.Errorf("SpDenseDot out-of-range=%v want 0", got)
	}
}

// Property: dot is symmetric and bilinear.
func TestDotProperties(t *testing.T) {
	f := func(a, b []float64, c float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		for _, v := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true // skip pathological inputs
			}
		}
		if math.IsNaN(c) || math.Abs(c) > 1e3 {
			return true
		}
		if !almostEq(Dot(a, b), Dot(b, a), 1e-9) {
			return false
		}
		ca := make([]float64, n)
		for i := range a {
			ca[i] = c * a[i]
		}
		return almostEq(Dot(ca, b), c*Dot(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SqDist(a,b) == ||a||² + ||b||² − 2<a,b> and is non-negative.
func TestSqDistIdentity(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.Abs(a[i]) > 1e6 {
				return true
			}
			if math.IsNaN(b[i]) || math.IsInf(b[i], 0) || math.Abs(b[i]) > 1e6 {
				return true
			}
		}
		d := SqDist(a, b)
		id := SqNorm(a) + SqNorm(b) - 2*Dot(a, b)
		return d >= 0 && almostEq(d, id, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDot256(b *testing.B) {
	x := make([]float64, 256)
	y := make([]float64, 256)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(256 - i)
	}
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += Dot(x, y)
	}
	_ = s
}
