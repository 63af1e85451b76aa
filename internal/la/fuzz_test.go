package la

import (
	"encoding/binary"
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

// FuzzDecodeMatrix holds DecodeMatrix to its trust-boundary contract: any
// buffer either fails with an error or yields a matrix every sparse kernel
// can run on — SparseRow in bounds, indices inside the position table, and
// the scattered gather equal to the merge.
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
		if err != nil {
			return
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
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("rows %d,%d: scattered %v, SpDot %v", i, j, got, want)
				}
			}
		}
	})
}
