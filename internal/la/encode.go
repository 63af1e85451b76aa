package la

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire format for shipping sample blocks between ranks. Features travel as
// float32 (4 bytes per word), matching the single-precision transfers of the
// original CA-SVM code and the ×4B accounting used in the paper's Table X
// communication-volume model. Structural integers are int32.
//
// Layout (little endian):
//
//	byte  0     : kind (0 = dense, 1 = sparse)
//	int32 m, n  : rows, features
//	dense : m*n float32 values
//	sparse: (m+1) int32 rowptr, nnz int32 idx, nnz float32 val

const (
	wireDense  = 0
	wireSparse = 1
)

// EncodedSize returns the number of bytes EncodeRows will produce for the
// given rows without building the buffer.
func (a *Matrix) EncodedSize(rows []int) int {
	if !a.sparse {
		return 9 + 4*len(rows)*a.n
	}
	nnz := 0
	for _, r := range rows {
		nnz += int(a.rowptr[r+1] - a.rowptr[r])
	}
	return 9 + 4*(len(rows)+1) + 8*nnz
}

// EncodeRows serialises the given rows (in order) to the wire format.
func (a *Matrix) EncodeRows(rows []int) []byte {
	return a.AppendRows(make([]byte, 0, a.EncodedSize(rows)), rows)
}

// AppendRows appends the wire encoding of the given rows (in order) to buf
// and returns the extended slice, so a caller with a reusable buffer encodes
// without allocating.
func (a *Matrix) AppendRows(buf []byte, rows []int) []byte {
	le := binary.LittleEndian
	var hdr [9]byte
	if a.sparse {
		hdr[0] = wireSparse
	} else {
		hdr[0] = wireDense
	}
	le.PutUint32(hdr[1:5], uint32(len(rows)))
	le.PutUint32(hdr[5:9], uint32(a.n))
	buf = append(buf, hdr[:]...)

	var w4 [4]byte
	putF32 := func(v float64) {
		le.PutUint32(w4[:], math.Float32bits(float32(v)))
		buf = append(buf, w4[:]...)
	}
	putI32 := func(v int32) {
		le.PutUint32(w4[:], uint32(v))
		buf = append(buf, w4[:]...)
	}

	if !a.sparse {
		for _, r := range rows {
			for _, v := range a.DenseRow(r) {
				putF32(v)
			}
		}
		return buf
	}
	off := int32(0)
	putI32(0)
	for _, r := range rows {
		off += a.rowptr[r+1] - a.rowptr[r]
		putI32(off)
	}
	for _, r := range rows {
		ix, _ := a.SparseRow(r)
		for _, j := range ix {
			putI32(j)
		}
	}
	for _, r := range rows {
		_, vx := a.SparseRow(r)
		for _, v := range vx {
			putF32(v)
		}
	}
	return buf
}

// DecodeMatrix parses a buffer produced by EncodeRows back into a Matrix.
func DecodeMatrix(buf []byte) (*Matrix, error) {
	le := binary.LittleEndian
	if len(buf) < 9 {
		return nil, errors.New("la: decode: short header")
	}
	kind := buf[0]
	m := int(int32(le.Uint32(buf[1:5])))
	n := int(int32(le.Uint32(buf[5:9])))
	if m < 0 || n < 0 {
		return nil, fmt.Errorf("la: decode: bad dims m=%d n=%d", m, n)
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
			return nil, fmt.Errorf("la: decode dense: %d bytes for %d values", len(p), m*n)
		}
		data := make([]float64, m*n)
		for i := range data {
			data[i] = getF32()
		}
		return NewDense(m, n, data), nil
	case wireSparse:
		if len(p) < 4*(m+1) {
			return nil, errors.New("la: decode sparse: short rowptr")
		}
		rp := make([]int32, m+1)
		for i := range rp {
			rp[i] = getI32()
		}
		nnz := int(rp[m])
		if nnz < 0 || len(p) != 8*nnz {
			return nil, fmt.Errorf("la: decode sparse: %d bytes for nnz=%d", len(p), nnz)
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
		return nil, fmt.Errorf("la: decode: unknown kind %d", kind)
	}
}

// CheckCSR verifies what every sparse kernel takes on trust — rowptr starts
// at 0, never decreases and stays within the entries, and each row's indices
// are strictly increasing inside [0, n) — in one pass. A buffer off the wire
// that breaks any of it would otherwise surface as a slice-bounds panic in
// SparseRow, a silently wrong merge in SpDot, or a write outside
// ScatteredRow's position table.
func CheckCSR(n int, rowptr, idx []int32) error {
	if rowptr[0] != 0 {
		return fmt.Errorf("la: decode sparse: rowptr[0]=%d", rowptr[0])
	}
	for i := 0; i+1 < len(rowptr); i++ {
		lo, hi := rowptr[i], rowptr[i+1]
		if hi < lo || int(hi) > len(idx) {
			return fmt.Errorf("la: decode sparse: rowptr[%d..%d]=%d,%d of %d entries", i, i+1, lo, hi, len(idx))
		}
		prev := int32(-1)
		for _, f := range idx[lo:hi] {
			if f <= prev || int(f) >= n {
				return fmt.Errorf("la: decode sparse: row %d index %d after %d with %d features", i, f, prev, n)
			}
			prev = f
		}
	}
	return nil
}

// EncodeF64 serialises a []float64 as 8-byte little-endian words with a
// 4-byte length prefix. Used for labels and Lagrange multipliers, which
// travel at full precision.
func EncodeF64(x []float64) []byte {
	buf := make([]byte, 4+8*len(x))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(x)))
	for i, v := range x {
		binary.LittleEndian.PutUint64(buf[4+8*i:], math.Float64bits(v))
	}
	return buf
}

// DecodeF64 parses a buffer produced by EncodeF64.
func DecodeF64(buf []byte) ([]float64, error) {
	if len(buf) < 4 {
		return nil, errors.New("la: DecodeF64: short header")
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if len(buf) != 4+8*n {
		return nil, fmt.Errorf("la: DecodeF64: %d bytes for %d values", len(buf)-4, n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[4+8*i:]))
	}
	return out, nil
}
