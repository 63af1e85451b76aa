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

// DecodeMatrix parses a buffer produced by EncodeRows back into a Matrix:
// DecodeMatrices of that one buffer.
func DecodeMatrix(buf []byte) (*Matrix, error) {
	return DecodeMatrices([][]byte{buf})
}

// EncodedShape reports the rows, features and storage kind of the
// EncodeRows buffer buf, after the checks DecodeMatrices makes of its header
// and length, without decoding a value.
func EncodedShape(buf []byte) (rows, features int, sparse bool, err error) {
	b, err := parseBlock(buf)
	return b.m, b.n, b.kind == wireSparse, err
}

// DecodeRowInto decodes buf, an EncodeRows buffer of one row, into row i of
// the dense matrix a, and sets that row's entry of a's norm cache to its
// squared norm (computing the rest of the cache first when a has none), so
// the cache stays what EnsureNorms would compute. It accepts exactly the
// buffers DecodeMatrix turns into a 1×a.Features() dense matrix, and writes
// the same values; any other buffer is an error and writes nothing.
func (a *Matrix) DecodeRowInto(i int, buf []byte) error {
	b, err := parseBlock(buf)
	if err != nil {
		return err
	}
	if a.sparse || b.kind != wireDense || b.m != 1 || b.n != a.n {
		return fmt.Errorf("la: decode row: kind %d, %d×%d into a dense row of %d (sparse=%v)", b.kind, b.m, b.n, a.n, a.sparse)
	}
	a.EnsureNorms()
	row := appendF32s(a.DenseRow(i)[:0], b.body)
	a.sqnorm[i] = SqNorm(row)
	return nil
}

// DecodeMatrices parses buffers produced by EncodeRows and decodes them, in
// order, into one matrix holding every buffer's rows, each value written
// once. The buffers must share the first one's storage kind and feature
// count, and there must be at least one. Everything is checked before it is
// used — each header and the body length it implies, each sparse block's
// structure (CheckCSR) — and the storage is sized only from checked headers,
// so a malformed buffer is an error, never a panic.
func DecodeMatrices(bufs [][]byte) (*Matrix, error) {
	if len(bufs) == 0 {
		return nil, errors.New("la: decode: no buffers")
	}
	// A constant capacity keeps the headers of a few buffers — DecodeMatrix's
	// one among them — off the heap.
	blocks := make([]wireBlock, 0, 8)
	m, nnz := 0, 0
	for k, buf := range bufs {
		b, err := parseBlock(buf)
		if err != nil {
			return nil, err
		}
		if k > 0 && (b.kind != blocks[0].kind || b.n != blocks[0].n) {
			return nil, fmt.Errorf("la: decode: buffer %d is kind %d with %d features, buffer 0 kind %d with %d",
				k, b.kind, b.n, blocks[0].kind, blocks[0].n)
		}
		blocks = append(blocks, b)
		m += b.m
		nnz += b.nnz
	}
	n := blocks[0].n
	if blocks[0].kind == wireDense {
		data := make([]float64, 0, m*n)
		for _, b := range blocks {
			data = appendF32s(data, b.body)
		}
		return NewDense(m, n, data), nil
	}
	le := binary.LittleEndian
	rp := make([]int32, m+1)
	ix := make([]int32, nnz)
	vx := make([]float64, 0, nnz)
	r0, z0 := 0, 0
	for _, b := range blocks {
		// The block's own rowptr lands over the previous block's last entry
		// (its first must be 0), is checked, and is then shifted by the
		// entries before it.
		brp, bix := rp[r0:r0+b.m+1], ix[z0:z0+b.nnz]
		for i := range brp {
			brp[i] = int32(le.Uint32(b.body[4*i:]))
		}
		idx := b.body[4*(b.m+1):]
		for i := range bix {
			bix[i] = int32(le.Uint32(idx[4*i:]))
		}
		if err := CheckCSR(n, brp, bix); err != nil {
			return nil, err
		}
		for i := range brp {
			brp[i] += int32(z0)
		}
		vx = appendF32s(vx, idx[4*b.nnz:])
		r0, z0 = r0+b.m, z0+b.nnz
	}
	return NewSparse(m, n, rp, ix, vx), nil
}

// wireBlock is one EncodeRows buffer with its header parsed and its body's
// length checked against it.
type wireBlock struct {
	kind byte
	m, n int    // rows, features
	nnz  int    // stored entries of a sparse block
	body []byte // everything after the header
}

// parseBlock checks buf's header and that its body holds exactly what the
// header says: m·n values for a dense block; an (m+1)-entry rowptr and as
// many indices and values as its last entry for a sparse one.
func parseBlock(buf []byte) (wireBlock, error) {
	le := binary.LittleEndian
	if len(buf) < 9 {
		return wireBlock{}, errors.New("la: decode: short header")
	}
	b := wireBlock{kind: buf[0], m: int(int32(le.Uint32(buf[1:5]))), n: int(int32(le.Uint32(buf[5:9]))), body: buf[9:]}
	if b.m < 0 || b.n < 0 {
		return wireBlock{}, fmt.Errorf("la: decode: bad dims m=%d n=%d", b.m, b.n)
	}
	switch b.kind {
	case wireDense:
		if len(b.body)%4 != 0 || len(b.body)/4 != b.m*b.n {
			return wireBlock{}, fmt.Errorf("la: decode dense: %d bytes for %d values", len(b.body), b.m*b.n)
		}
	case wireSparse:
		if len(b.body) < 4*(b.m+1) {
			return wireBlock{}, errors.New("la: decode sparse: short rowptr")
		}
		b.nnz = int(int32(le.Uint32(b.body[4*b.m:])))
		if b.nnz < 0 || len(b.body) != 4*(b.m+1)+8*b.nnz {
			return wireBlock{}, fmt.Errorf("la: decode sparse: %d bytes for nnz=%d", len(b.body)-4*(b.m+1), b.nnz)
		}
	default:
		return wireBlock{}, fmt.Errorf("la: decode: unknown kind %d", b.kind)
	}
	return b, nil
}

// appendF32s appends the float32 wire values in p, widened.
func appendF32s(dst []float64, p []byte) []float64 {
	for ; len(p) > 0; p = p[4:] {
		dst = append(dst, float64(math.Float32frombits(binary.LittleEndian.Uint32(p))))
	}
	return dst
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

// DecodeBase64F64 decodes the whole 32-character blocks at the front of src,
// standard base64 of little-endian float64 values, three values a block,
// straight into dst, and returns how many values it wrote. It stops before
// the first block holding a byte outside A–Z a–z 0–9 + / ('=', CR and LF
// included) or a NaN or ±Inf, before a tail shorter than 32 characters, and
// when dst has room for fewer than three more values. What it writes is
// base64.StdEncoding's bytes, bit for bit; it is the AVX2 lanes, and without
// them it writes nothing and returns 0, so the caller decodes whatever it
// leaves with encoding/base64.
func DecodeBase64F64(dst []float64, src []byte) int {
	if !vectorKernels {
		return 0
	}
	return base64F64Vec(dst, src)
}

// QuotedSpan returns n, the index of the first '"' or '\\' in s (len(s)
// when there is none), and whether a LF or CR comes before n: in one pass
// over the bytes after a JSON string's opening quote, where an escape-free
// string ends and whether its body holds a line break. The lanes take 32
// bytes a step; the tail, and every byte without the lanes, go one at a time.
func QuotedSpan(s []byte) (n int, ctl bool) {
	if vectorKernels {
		n, ctl = quotedSpanVec(s)
	}
	for ; n < len(s); n++ {
		switch s[n] {
		case '"', '\\':
			return n, ctl
		case '\n', '\r':
			ctl = true
		}
	}
	return n, ctl
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

// F64Size is the length of EncodeF64's form of n values.
func F64Size(n int) int { return 4 + 8*n }

// AppendF64Rows appends EncodeF64's form of x's values at rows, in order,
// to buf.
func AppendF64Rows(buf []byte, x []float64, rows []int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	for _, r := range rows {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x[r]))
	}
	return buf
}

// DecodeF64 parses a buffer produced by EncodeF64.
func DecodeF64(buf []byte) ([]float64, error) {
	n, err := f64Count(buf)
	if err != nil {
		return nil, err
	}
	return appendF64s(make([]float64, 0, n), buf), nil
}

// DecodeF64Into parses a buffer produced by EncodeF64 into dst, which must
// have exactly the buffer's length.
func DecodeF64Into(dst []float64, buf []byte) error {
	n, err := f64Count(buf)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("la: DecodeF64Into: buffer holds %d values, want %d", n, len(dst))
	}
	appendF64s(dst[:0], buf)
	return nil
}

// DecodeF64s parses buffers produced by EncodeF64 into one slice, in order;
// buffer k must hold counts[k] values. Every buffer is checked before the
// slice is allocated.
func DecodeF64s(bufs [][]byte, counts []int) ([]float64, error) {
	total := 0
	for k, buf := range bufs {
		n, err := f64Count(buf)
		if err != nil {
			return nil, err
		}
		if n != counts[k] {
			return nil, fmt.Errorf("la: DecodeF64s: buffer %d holds %d values, want %d", k, n, counts[k])
		}
		total += n
	}
	out := make([]float64, 0, total)
	for _, buf := range bufs {
		out = appendF64s(out, buf)
	}
	return out, nil
}

// f64Count returns how many values the EncodeF64 buffer buf holds, after
// checking that its length matches.
func f64Count(buf []byte) (int, error) {
	if len(buf) < 4 {
		return 0, errors.New("la: DecodeF64: short header")
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if len(buf) != 4+8*n {
		return 0, fmt.Errorf("la: DecodeF64: %d bytes for %d values", len(buf)-4, n)
	}
	return n, nil
}

// appendF64s appends the values of a checked EncodeF64 buffer.
func appendF64s(dst []float64, buf []byte) []float64 {
	for p := buf[4:]; len(p) > 0; p = p[8:] {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(p)))
	}
	return dst
}
