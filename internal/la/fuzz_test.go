package la

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// corruptCSRSeeds returns a valid sparse encoding and the three structural
// corruptions DecodeMatrix must refuse: a rowptr that decreases, an index
// outside [0, n), and a row whose indices are not strictly increasing.
func corruptCSRSeeds() (valid []byte, corrupt [][]byte) {
	a := NewSparse(3, 8,
		[]int32{0, 3, 3, 5},
		[]int32{0, 2, 7, 1, 4},
		[]float64{1, 2, 3, 4, 5})
	valid = a.EncodeAll()
	const rowptrAt, idxAt = 9, 9 + 4*4 // header; then 4 rowptr words
	put := func(word int, v int32) []byte {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[word:], uint32(v))
		return b
	}
	return valid, [][]byte{
		put(rowptrAt+4*1, 4),  // rowptr 0,4,3,5: decreases
		put(idxAt+4*2, 8),     // row 0 stores feature 8 of 8
		put(idxAt+4*2, -1),    // row 0 stores a negative feature
		put(idxAt+4*3, 4),     // row 2 is 4,4: duplicate
		put(idxAt+4*1, 7),     // row 0 is 0,7,7: not increasing
		put(rowptrAt+4*0, 1),  // rowptr[0] != 0
		put(rowptrAt+4*1, 99), // rowptr runs past the entries and comes back
	}
}

func TestDecodeMatrixRejectsCorruptCSR(t *testing.T) {
	valid, corrupt := corruptCSRSeeds()
	if _, err := DecodeMatrix(valid); err != nil {
		t.Fatalf("valid encoding refused: %v", err)
	}
	for k, buf := range corrupt {
		if m, err := DecodeMatrix(buf); err == nil {
			t.Errorf("corruption %d decoded to a %dx%d matrix", k, m.Rows(), m.Features())
		}
	}
}

// refDecodeMatrix is the one-buffer decoder DecodeMatrix was before it
// became DecodeMatrices of one buffer, kept as its oracle.
func refDecodeMatrix(buf []byte) (*Matrix, error) {
	le := binary.LittleEndian
	if len(buf) < 9 {
		return nil, errors.New("short header")
	}
	kind := buf[0]
	m := int(int32(le.Uint32(buf[1:5])))
	n := int(int32(le.Uint32(buf[5:9])))
	if m < 0 || n < 0 {
		return nil, fmt.Errorf("bad dims m=%d n=%d", m, n)
	}
	p := buf[9:]
	getF32 := func() float64 {
		v := math.Float32frombits(le.Uint32(p[:4]))
		p = p[4:]
		return float64(v)
	}
	getI32 := func() int32 {
		v := int32(le.Uint32(p[:4]))
		p = p[4:]
		return v
	}
	switch kind {
	case wireDense:
		if len(p) != 4*m*n {
			return nil, fmt.Errorf("dense: %d bytes for %d values", len(p), m*n)
		}
		data := make([]float64, m*n)
		for i := range data {
			data[i] = getF32()
		}
		return NewDense(m, n, data), nil
	case wireSparse:
		if len(p) < 4*(m+1) {
			return nil, errors.New("sparse: short rowptr")
		}
		rp := make([]int32, m+1)
		for i := range rp {
			rp[i] = getI32()
		}
		nnz := int(rp[m])
		if nnz < 0 || len(p) != 8*nnz {
			return nil, fmt.Errorf("sparse: %d bytes for nnz=%d", len(p), nnz)
		}
		ix := make([]int32, nnz)
		for i := range ix {
			ix[i] = getI32()
		}
		if err := CheckCSR(n, rp, ix); err != nil {
			return nil, err
		}
		vx := make([]float64, nnz)
		for i := range vx {
			vx[i] = getF32()
		}
		return NewSparse(m, n, rp, ix, vx), nil
	default:
		return nil, fmt.Errorf("unknown kind %d", kind)
	}
}

// FuzzDecodeMatrix holds DecodeMatrix to its trust-boundary contract: any
// buffer either fails with an error or yields a matrix every sparse kernel
// can run on — SparseRow in bounds, indices inside the position table, and
// the scattered gather equal to the merge. It also holds it to
// refDecodeMatrix: the same buffers refused, the same matrix bit for bit
// from the rest, whose shape EncodedShape reports.
func FuzzDecodeMatrix(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	f.Add(randDense(rng, 3, 5).EncodeAll())
	f.Add(randSparse(rng, 6, 40, 0.3).EncodeRows([]int{4, 0, 2}))
	f.Add(randSparse(rng, 2, 2048, 0.02).EncodeAll())
	valid, corrupt := corruptCSRSeeds()
	f.Add(valid)
	for _, buf := range corrupt {
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		a, err := DecodeMatrix(buf)
		want, wantErr := refDecodeMatrix(buf)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("error %v, the old decoder's %v", err, wantErr)
		}
		if m, n, sp, rerr := EncodedShape(buf); err == nil && (rerr != nil || m != a.Rows() || n != a.Features() || sp != a.Sparse()) {
			t.Fatalf("EncodedShape %d×%d (sparse=%v), %v of a %d×%d (sparse=%v) matrix",
				m, n, sp, rerr, a.Rows(), a.Features(), a.Sparse())
		}
		if err != nil {
			return
		}
		if !sameStorage(a, want) {
			t.Fatal("decoded a different matrix than the old decoder")
		}
		if !a.Sparse() || a.Features() > 1<<16 {
			return // the table below would be sized by an attacker's n
		}
		rows := min(a.Rows(), 16)
		var s ScatteredRow
		for i := 0; i < rows; i++ {
			ai, av := a.SparseRow(i)
			s.Set(a.Features(), ai, av)
			for j := 0; j < rows; j++ {
				bi, bv := a.SparseRow(j)
				got, want := s.Dot(bi, bv), SpDot(ai, av, bi, bv)
				// NaN against NaN is a match: which operand's payload a NaN
				// product carries is the compiler's choice, not the code's.
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("rows %d,%d: scattered %v, SpDot %v", i, j, got, want)
				}
			}
		}
	})
}

// FuzzDecodeRowInto holds DecodeRowInto, which writes a sample off the wire
// into shared working-set storage, to DecodeMatrix: it accepts exactly the
// buffers DecodeMatrix turns into a 1×n dense matrix, for a target of n
// features, and for those writes the same values and the same norm. It never
// panics, and it writes nothing outside its row and that row's norm —
// nothing at all on a refused buffer. The target's storage runs on past its
// last row, so an overlong write is seen there too.
func FuzzDecodeRowInto(f *testing.F) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 5, 32} {
		f.Add(randDense(rng, 1, n).EncodeAll(), uint8(n), uint8(n%3))
	}
	f.Add(randDense(rng, 1, 6).EncodeAll(), uint8(5), uint8(0))       // a feature too many
	f.Add(randDense(rng, 2, 5).EncodeAll(), uint8(5), uint8(1))       // two rows
	f.Add(randDense(rng, 0, 5).EncodeAll(), uint8(5), uint8(2))       // no row
	f.Add(randSparse(rng, 1, 5, 0.6).EncodeAll(), uint8(5), uint8(0)) // the other kind
	short := randDense(rng, 1, 5).EncodeAll()
	f.Add(short[:len(short)-1], uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, buf []byte, nb, rb uint8) {
		const rows, guard = 3, 8
		n, r := int(nb%40), int(rb%rows)
		poison := math.Float64frombits(0x7ff8_dead_beef_0001)
		store := make([]float64, rows*n+guard)
		for k := range store {
			store[k] = poison
		}
		a := NewDense(rows, n, store[:rows*n])
		for k := range rows * n {
			store[k] = float64(k) - 7.5
		}
		a.EnsureNorms()
		before, norms := append([]float64(nil), store...), append([]float64(nil), a.sqnorm...)

		err := a.DecodeRowInto(r, buf)
		want, werr := DecodeMatrix(buf)
		ok := werr == nil && want.Rows() == 1 && want.Features() == n && !want.Sparse()
		if (err == nil) != ok {
			t.Fatalf("DecodeRowInto: %v; DecodeMatrix: %v", err, werr)
		}
		same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		for k, v := range store {
			if (!ok || k/max(n, 1) != r || k >= rows*n) && !same(v, before[k]) {
				t.Fatalf("word %d of the storage changed (row %d of %d×%d, accepted=%v)", k, r, rows, n, ok)
			}
		}
		for i, v := range a.sqnorm {
			if (!ok || i != r) && !same(v, norms[i]) {
				t.Fatalf("norm of row %d changed (target row %d, accepted=%v)", i, r, ok)
			}
		}
		if !ok {
			return
		}
		for j, v := range a.DenseRow(r) {
			if !same(v, want.DenseRow(0)[j]) {
				t.Fatalf("feature %d: %v, DecodeMatrix %v", j, v, want.DenseRow(0)[j])
			}
		}
		// NaN against NaN is a match: which operand's payload a NaN sum
		// carries is the compiler's choice, not the code's.
		if got, w := a.sqnorm[r], want.SqNormRow(0); !same(got, w) && !(math.IsNaN(got) && math.IsNaN(w)) {
			t.Fatalf("norm %v, DecodeMatrix's row %v", got, w)
		}
	})
}
