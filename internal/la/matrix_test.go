package la

import (
	"fmt"
	"math"
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
	if got := rowDot(a, 0, 1); got != 4+10+18 {
		t.Fatalf("rowDot=%v", got)
	}
	if got := SqDistOf(a.SqNormRow(0), a.SqNormRow(1), rowDot(a, 0, 1)); got != 27 {
		t.Fatalf("SqDistOf=%v", got)
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
	if got := rowDot(a, 0, 1); got != 10 {
		t.Fatalf("rowDot=%v", got)
	}
	if got := SqDistOf(a.SqNormRow(0), a.SqNormRow(1), rowDot(a, 0, 1)); got != 1+9 {
		t.Fatalf("SqDistOf=%v", got)
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
			if !almostEq(rowDot(sp, i, j), rowDot(de, i, j), 1e-12) {
				t.Fatalf("rowDot disagree at %d,%d", i, j)
			}
			spd := SqDistOf(sp.SqNormRow(i), sp.SqNormRow(j), rowDot(sp, i, j))
			ded := SqDistOf(de.SqNormRow(i), de.SqNormRow(j), rowDot(de, i, j))
			if !almostEq(spd, ded, 1e-9) {
				t.Fatalf("SqDistOf disagree at %d,%d", i, j)
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

// pairwiseConcat folds the two-matrix Concat that the variadic one replaced
// over parts: the oracle for the one-allocation form.
func pairwiseConcat(parts ...*Matrix) *Matrix {
	out := parts[0].Subset(allRowsOf(parts[0]))
	for _, b := range parts[1:] {
		a := out
		if !a.sparse {
			out = NewDense(a.m+b.m, a.n, append(append([]float64(nil), a.dense...), b.dense...))
			continue
		}
		rp := make([]int32, a.m+b.m+1)
		copy(rp, a.rowptr)
		for i := 1; i <= b.m; i++ {
			rp[a.m+i] = a.rowptr[a.m] + b.rowptr[i]
		}
		out = NewSparse(a.m+b.m, a.n, rp, append(append([]int32(nil), a.idx...), b.idx...),
			append(append([]float64(nil), a.val...), b.val...))
	}
	return out
}

func allRowsOf(a *Matrix) []int {
	rows := make([]int, a.Rows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// sameStorage reports whether a and b hold the same rows in the same storage,
// every value compared by its bits.
func sameStorage(a, b *Matrix) bool {
	if a.m != b.m || a.n != b.n || a.sparse != b.sparse || len(a.dense) != len(b.dense) ||
		len(a.rowptr) != len(b.rowptr) || len(a.idx) != len(b.idx) || len(a.val) != len(b.val) {
		return false
	}
	for i := range a.dense {
		if math.Float64bits(a.dense[i]) != math.Float64bits(b.dense[i]) {
			return false
		}
	}
	for i := range a.rowptr {
		if a.rowptr[i] != b.rowptr[i] {
			return false
		}
	}
	for i := range a.idx {
		if a.idx[i] != b.idx[i] || math.Float64bits(a.val[i]) != math.Float64bits(b.val[i]) {
			return false
		}
	}
	return true
}

// TestConcatMatchesPairwiseFold: Concat of 1, 2 and 5 parts, empty parts
// among them, is the pairwise fold bit for bit, dense and CSR alike.
func TestConcatMatchesPairwiseFold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sparse := range []bool{false, true} {
		mk := func(m int) *Matrix {
			if sparse {
				return randSparse(rng, m, 9, 0.4)
			}
			return randDense(rng, m, 9)
		}
		for _, sizes := range [][]int{{3}, {0}, {4, 2}, {0, 5}, {2, 0}, {3, 0, 1, 4, 0}, {0, 0, 0, 0, 0}} {
			parts := make([]*Matrix, len(sizes))
			for k, m := range sizes {
				parts[k] = mk(m)
			}
			got, want := Concat(parts...), pairwiseConcat(parts...)
			if !sameStorage(got, want) {
				t.Fatalf("sparse=%v sizes %v: Concat differs from the pairwise fold", sparse, sizes)
			}
		}
	}
	for _, parts := range [][]*Matrix{
		{Zeros(2, 3), NewSparse(1, 3, []int32{0, 1}, []int32{2}, []float64{1})},
		{Zeros(1, 3), Zeros(1, 3), NewSparse(0, 3, []int32{0}, nil, nil)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a dense/sparse mix: no panic")
				}
			}()
			Concat(parts...)
		}()
	}
}

// TestDecodeMatricesMatchesConcat: DecodeMatrices of 1, 2 and 5 encoded
// parts, empty parts among them, is Concat of each part's DecodeMatrix bit
// for bit, dense and CSR alike; parts of mixed storage kinds or feature
// counts, a malformed part among good ones, and no parts are errors.
func TestDecodeMatricesMatchesConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sparse := range []bool{false, true} {
		for _, sizes := range [][]int{{3}, {0}, {4, 2}, {0, 5}, {2, 0}, {3, 0, 1, 4, 0}, {0, 0, 0, 0, 0}} {
			bufs := make([][]byte, len(sizes))
			parts := make([]*Matrix, len(sizes))
			for k, m := range sizes {
				a := randDense(rng, m, 9)
				if sparse {
					a = randSparse(rng, m, 9, 0.4)
				}
				bufs[k] = a.EncodeAll()
				var err error
				if parts[k], err = DecodeMatrix(bufs[k]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := DecodeMatrices(bufs)
			if err != nil || !sameStorage(got, Concat(parts...)) {
				t.Fatalf("sparse=%v sizes %v: DecodeMatrices differs from Concat (%v)", sparse, sizes, err)
			}
		}
	}
	d, s := randDense(rng, 2, 3).EncodeAll(), randSparse(rng, 2, 3, 0.5).EncodeAll()
	for name, bufs := range map[string][][]byte{
		"dense then sparse": {d, s},
		"sparse then dense": {s, d},
		"feature counts":    {d, randDense(rng, 2, 4).EncodeAll()},
		"truncated second":  {d, d[:len(d)-1]},
		"none":              nil,
	} {
		if _, err := DecodeMatrices(bufs); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestSubsetInheritsNorms: a subset of a normed matrix carries its rows'
// norms, bit for bit what EnsureNorms computes on the subset itself, and a
// subset of an un-normed matrix stays lazy.
func TestSubsetInheritsNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, a := range []*Matrix{randDense(rng, 12, 7), randSparse(rng, 12, 30, 0.3)} {
		rows := []int{11, 0, 4, 4, 7}
		if s := a.Subset(rows); s.sqnorm != nil {
			t.Fatalf("sparse=%v: a subset of an un-normed matrix holds norms", a.Sparse())
		}
		a.EnsureNorms()
		s := a.Subset(rows)
		if s.sqnorm == nil {
			t.Fatalf("sparse=%v: the subset dropped the norm cache", a.Sparse())
		}
		fresh := s.subsetRows(allRowsOf(s))
		fresh.EnsureNorms()
		for k := range rows {
			if math.Float64bits(s.sqnorm[k]) != math.Float64bits(fresh.sqnorm[k]) {
				t.Fatalf("sparse=%v row %d: inherited norm %v, computed %v", a.Sparse(), k, s.sqnorm[k], fresh.sqnorm[k])
			}
		}
		if e := a.Subset(nil); e.Rows() != 0 || e.sqnorm == nil {
			t.Fatalf("sparse=%v: the empty subset of a normed matrix: %d rows, norms %v", a.Sparse(), e.Rows(), e.sqnorm)
		}
	}
}

// TestSubsetIntoMatchesSubset: a dense gather into caller storage holds
// Subset's rows and norms bit for bit, written into the given (dirty)
// slices, and stays lazy when the source holds no norms.
func TestSubsetIntoMatchesSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(rng, 12, 7)
	rows := []int{11, 0, 4, 4, 7}
	data, norms := make([]float64, 64), make([]float64, 8)
	for i := range data {
		data[i] = math.NaN()
	}
	if g := a.SubsetInto(rows, data, norms); g.sqnorm != nil {
		t.Fatal("a gather of an un-normed matrix holds norms")
	}
	a.EnsureNorms()
	want, got := a.Subset(rows), a.SubsetInto(rows, data, norms)
	if !Equal(got, want, 0) || &got.dense[0] != &data[0] || &got.sqnorm[0] != &norms[0] {
		t.Fatal("the gather differs from Subset or is not in the given storage")
	}
	for k := range rows {
		if math.Float64bits(got.sqnorm[k]) != math.Float64bits(want.sqnorm[k]) {
			t.Fatalf("row %d: norm %v, Subset's %v", k, got.sqnorm[k], want.sqnorm[k])
		}
	}
}

func TestEnsureNormsIntoMatchesEnsureNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, a := range []*Matrix{randDense(rng, 9, 5), randSparse(rng, 9, 40, 0.2)} {
		want, got := a.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}), a
		want.EnsureNorms()
		buf := make([]float64, 16)
		got.EnsureNormsInto(buf)
		if &got.sqnorm[0] != &buf[0] || len(got.sqnorm) != 9 {
			t.Fatal("the norm cache is not in the given storage")
		}
		for i := range want.sqnorm {
			if math.Float64bits(got.sqnorm[i]) != math.Float64bits(want.sqnorm[i]) {
				t.Fatalf("row %d: norm %v, EnsureNorms' %v", i, got.sqnorm[i], want.sqnorm[i])
			}
		}
		got.EnsureNormsInto(make([]float64, 9)) // a held cache stays
		if &got.sqnorm[0] != &buf[0] {
			t.Fatal("EnsureNormsInto replaced a held cache")
		}
	}
}

// withEmptyRows returns a CSR matrix like randSparse whose every third row
// is empty.
func withEmptyRows(rng *rand.Rand, m, n int, density float64) *Matrix {
	a := randSparse(rng, m, n, density)
	var keep []int
	for i := 0; i < m; i++ {
		if i%3 != 1 {
			keep = append(keep, i)
		}
	}
	b := a.Subset(keep)
	rp := make([]int32, m+1)
	for i, k := 0, 0; i < m; i++ {
		if i%3 != 1 {
			k++
		}
		rp[i+1] = b.rowptr[k]
	}
	return NewSparse(m, n, rp, b.idx, b.val)
}

// TestRowRangeMatchesSubset: every row range of a dense and a CSR matrix
// (empty rows among them, empty ranges, and matrices of fewer rows than
// an 8-rank block layout has blocks) is Subset of the same rows bit for bit,
// norms included, whether or not the parent holds its norm cache; a view's
// own norms never land in the parent.
func TestRowRangeMatchesSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var cases []*Matrix
	for _, m := range []int{0, 3, 13} {
		cases = append(cases, randDense(rng, m, 5), withEmptyRows(rng, m, 40, 0.1), randSparse(rng, m, 9, 0))
	}
	for _, a := range cases {
		for _, normed := range []bool{false, true} {
			if normed {
				a.EnsureNorms()
			}
			for lo := 0; lo <= a.Rows(); lo++ {
				for hi := lo; hi <= a.Rows(); hi++ {
					rows := make([]int, 0, hi-lo)
					for i := lo; i < hi; i++ {
						rows = append(rows, i)
					}
					v, s := a.RowRange(lo, hi), a.Subset(rows)
					where := fmt.Sprintf("sparse=%v m=%d normed=%v [%d,%d)", a.Sparse(), a.Rows(), normed, lo, hi)
					if !sameStorage(v, s) {
						t.Fatalf("%s: the view differs from the subset", where)
					}
					if (v.sqnorm == nil) != (s.sqnorm == nil) {
						t.Fatalf("%s: view norms %v, subset norms %v", where, v.sqnorm, s.sqnorm)
					}
					v.EnsureNorms()
					s.EnsureNorms()
					for k := range rows {
						if math.Float64bits(v.sqnorm[k]) != math.Float64bits(s.sqnorm[k]) {
							t.Fatalf("%s row %d: view norm %v, subset norm %v", where, k, v.sqnorm[k], s.sqnorm[k])
						}
					}
					if !normed && a.sqnorm != nil {
						t.Fatalf("%s: the view's EnsureNorms wrote the parent's norm cache", where)
					}
				}
			}
		}
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

// TestSqDistVec: the distances from a vector to listed rows, and to every
// row when no list is given.
func TestSqDistVec(t *testing.T) {
	a := NewDense(2, 2, []float64{3, 4, 0, 0})
	x := []float64{0, 0}
	out := make([]float64, 2)
	SqDistTile(a, []int{1, 0}, NewDense(1, 2, x), 0, 1, out, 1)
	if out[0] != 0 || out[1] != 25 {
		t.Fatalf("SqDistTile listed=%v, want [0 25]", out)
	}
	SqDistTile(a, []int{0, 1}, NewDense(1, 2, x), 0, 1, out, 1)
	if out[0] != 25 || out[1] != 0 {
		t.Fatalf("SqDistTile all=%v, want [25 0]", out)
	}
}

// rowDot is <row_i, row_j> by the storage's scalar dot.
func rowDot(a *Matrix, i, j int) float64 {
	if a.Sparse() {
		ii, iv := a.SparseRow(i)
		ji, jv := a.SparseRow(j)
		return SpDot(ii, iv, ji, jv)
	}
	return Dot(a.DenseRow(i), a.DenseRow(j))
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
	into := make([]float64, len(x))
	if err := DecodeF64Into(into, EncodeF64(x)); err != nil || fmt.Sprint(into) != fmt.Sprint(x) {
		t.Fatalf("DecodeF64Into: %v, %v; want %v", into, err, x)
	}
	if err := DecodeF64Into(into[:3], EncodeF64(x)); err == nil {
		t.Error("DecodeF64Into a slice of another length should fail")
	}
	if err := DecodeF64Into(into[:1], EncodeF64(x)[:10]); err == nil {
		t.Error("DecodeF64Into from a truncated buffer should fail")
	}
	bufs := [][]byte{EncodeF64(x[:1]), EncodeF64(nil), EncodeF64(x[1:])}
	y, err = DecodeF64s(bufs, []int{1, 0, 3})
	if err != nil || fmt.Sprint(y) != fmt.Sprint(x) {
		t.Fatalf("DecodeF64s: %v, %v; want %v", y, err, x)
	}
	if _, err := DecodeF64s(bufs, []int{1, 0, 2}); err == nil {
		t.Error("a buffer holding other than its count should fail")
	}
	if _, err := DecodeF64s(bufs[:2:2], []int{1, 0}); err != nil {
		t.Error(err)
	}
	if _, err := DecodeF64s([][]byte{bufs[0][:5]}, []int{1}); err == nil {
		t.Error("a truncated buffer should fail")
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
