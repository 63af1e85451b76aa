package la

import (
	"math/rand"
	"testing"
)

// randDense returns a random dense matrix and keeps values moderate.
func randDense(rng *rand.Rand, m, n int) *Matrix {
	data := make([]float64, m*n)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return NewDense(m, n, data)
}

// randSparse returns a random CSR matrix with roughly density*n nonzeros
// per row.
// EncodeAll serialises every row of the matrix.
func (a *Matrix) EncodeAll() []byte {
	rows := make([]int, a.m)
	for i := range rows {
		rows[i] = i
	}
	return a.EncodeRows(rows)
}

func randSparse(rng *rand.Rand, m, n int, density float64) *Matrix {
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
	return NewSparse(m, n, rp, ix, vx)
}

func TestDenseBasics(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if a.Rows() != 2 || a.Features() != 3 || a.Sparse() {
		t.Fatal("dims wrong")
	}
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2)=%v", a.At(1, 2))
	}
	if got := a.DotRows(0, 1); got != 4+10+18 {
		t.Fatalf("DotRows=%v", got)
	}
	if got := a.SqDistRows(0, 1); got != 27 {
		t.Fatalf("SqDistRows=%v", got)
	}
	if a.NNZ() != 6 {
		t.Fatalf("NNZ=%d", a.NNZ())
	}
}

func TestSparseBasics(t *testing.T) {
	// rows: [0 0 5], [1 0 2]
	a := NewSparse(2, 3, []int32{0, 1, 3}, []int32{2, 0, 2}, []float64{5, 1, 2})
	if !a.Sparse() || a.Rows() != 2 || a.Features() != 3 {
		t.Fatal("dims wrong")
	}
	if a.At(0, 2) != 5 || a.At(0, 0) != 0 || a.At(1, 0) != 1 {
		t.Fatal("At wrong")
	}
	if got := a.DotRows(0, 1); got != 10 {
		t.Fatalf("DotRows=%v", got)
	}
	if got := a.SqDistRows(0, 1); got != 1+9 {
		t.Fatalf("SqDistRows=%v", got)
	}
	buf := make([]float64, 3)
	r := a.RowInto(1, buf)
	if r[0] != 1 || r[1] != 0 || r[2] != 2 {
		t.Fatalf("RowInto=%v", r)
	}
}

func TestSparseDenseAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sp := randSparse(rng, 20, 15, 0.4)
	// Densify.
	data := make([]float64, 20*15)
	for i := 0; i < 20; i++ {
		for j := 0; j < 15; j++ {
			data[i*15+j] = sp.At(i, j)
		}
	}
	de := NewDense(20, 15, data)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if !almostEq(sp.DotRows(i, j), de.DotRows(i, j), 1e-12) {
				t.Fatalf("DotRows disagree at %d,%d", i, j)
			}
			if !almostEq(sp.SqDistRows(i, j), de.SqDistRows(i, j), 1e-9) {
				t.Fatalf("SqDistRows disagree at %d,%d", i, j)
			}
		}
		x := de.DenseRow((i + 3) % 20)
		if !almostEq(sp.DotVec(i, x), de.DotVec(i, x), 1e-12) {
			t.Fatalf("DotVec disagree at %d", i)
		}
	}
}

func TestSubsetConcatDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 6, 4)
	s := a.Subset([]int{5, 0, 3})
	if s.Rows() != 3 {
		t.Fatal("subset rows")
	}
	for j := 0; j < 4; j++ {
		if s.At(0, j) != a.At(5, j) || s.At(2, j) != a.At(3, j) {
			t.Fatal("subset values")
		}
	}
	c := Concat(a, s)
	if c.Rows() != 9 || c.At(6, 1) != a.At(5, 1) {
		t.Fatal("concat values")
	}
}

func TestSubsetConcatSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSparse(rng, 8, 5, 0.5)
	s := a.Subset([]int{7, 2})
	for j := 0; j < 5; j++ {
		if s.At(0, j) != a.At(7, j) || s.At(1, j) != a.At(2, j) {
			t.Fatal("sparse subset values")
		}
	}
	c := Concat(a, s)
	if c.Rows() != 10 || c.At(9, 3) != a.At(2, 3) {
		t.Fatal("sparse concat values")
	}
	if c.NNZ() != a.NNZ()+s.NNZ() {
		t.Fatal("sparse concat nnz")
	}
}

func TestMean(t *testing.T) {
	a := NewDense(3, 2, []float64{0, 0, 2, 4, 4, 8})
	m := a.Mean(nil)
	if m[0] != 2 || m[1] != 4 {
		t.Fatalf("Mean=%v", m)
	}
	m = a.Mean([]int{1, 2})
	if m[0] != 3 || m[1] != 6 {
		t.Fatalf("Mean subset=%v", m)
	}
	// Empty subset must not divide by zero.
	m = a.Mean([]int{})
	if m[0] != 0 || m[1] != 0 {
		t.Fatalf("Mean empty=%v", m)
	}
}

func TestSqDistVec(t *testing.T) {
	a := NewDense(2, 2, []float64{3, 4, 0, 0})
	x := []float64{0, 0}
	if got := a.SqDistVec(0, x, 0); got != 25 {
		t.Fatalf("SqDistVec=%v", got)
	}
	if got := a.SqDistVec(1, x, 0); got != 0 {
		t.Fatalf("SqDistVec self=%v", got)
	}
}

func TestEncodeDecodeDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 5, 3)
	buf := a.EncodeRows([]int{0, 2, 4})
	if len(buf) != a.EncodedSize([]int{0, 2, 4}) {
		t.Fatalf("EncodedSize=%d len=%d", a.EncodedSize([]int{0, 2, 4}), len(buf))
	}
	b, err := DecodeMatrix(buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 3 || b.Features() != 3 {
		t.Fatal("decoded dims")
	}
	for j := 0; j < 3; j++ {
		if !almostEq(b.At(1, j), float64(float32(a.At(2, j))), 1e-7) {
			t.Fatalf("value mismatch at col %d", j)
		}
	}
}

func TestEncodeDecodeSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSparse(rng, 6, 10, 0.3)
	buf := a.EncodeAll()
	if len(buf) != a.EncodedSize([]int{0, 1, 2, 3, 4, 5}) {
		t.Fatal("EncodedSize mismatch")
	}
	b, err := DecodeMatrix(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Sparse() || b.Rows() != 6 {
		t.Fatal("decoded kind/dims")
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 10; j++ {
			if !almostEq(b.At(i, j), float64(float32(a.At(i, j))), 1e-7) {
				t.Fatalf("value mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeMatrix(nil); err == nil {
		t.Error("nil buffer should fail")
	}
	if _, err := DecodeMatrix([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown kind should fail")
	}
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	buf := a.EncodeAll()
	if _, err := DecodeMatrix(buf[:len(buf)-1]); err == nil {
		t.Error("truncated buffer should fail")
	}
}

func TestEncodeDecodeF64(t *testing.T) {
	x := []float64{1.5, -2.25, 0, 1e300}
	y, err := DecodeF64(EncodeF64(x))
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("roundtrip mismatch %v vs %v", x, y)
		}
	}
	if _, err := DecodeF64([]byte{1}); err == nil {
		t.Error("short buffer should fail")
	}
	if _, err := DecodeF64(EncodeF64(x)[:10]); err == nil {
		t.Error("truncated buffer should fail")
	}
	y, err = DecodeF64(EncodeF64(nil))
	if err != nil || len(y) != 0 {
		t.Error("empty roundtrip should work")
	}
}

func TestEqual(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	b := NewDense(2, 2, []float64{1, 2, 3, 4.0000001})
	if !Equal(a, b, 1e-5) {
		t.Error("should be equal within tol")
	}
	if Equal(a, b, 1e-9) {
		t.Error("should differ at tight tol")
	}
	c := NewDense(1, 2, []float64{1, 2})
	if Equal(a, c, 1) {
		t.Error("dim mismatch should not be equal")
	}
}
