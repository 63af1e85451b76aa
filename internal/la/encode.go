package la

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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
//
// Every array section this repository puts on a wire or reads off one goes
// through the one array codec at the end of this file: raw little-endian
// float64 words (PutF64s, GetF64s, AppendF64s, and AddF64s, which sums two
// such sections in place), int32 words (PutI32s, GetI32s) and the float32
// feature words (PutF32s narrows, GetF32s widens). Each writes into or reads
// from storage its caller sized, in one loop over the section: the sample
// blocks here, EncodeF64's sections, mpi's allreduce sum, the model shard
// codec (internal/model), the solver checkpoint (internal/smo) and the served
// queries_b64 body (internal/serve).

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
	buf, out := grow(buf, a.EncodedSize(rows))
	le := binary.LittleEndian
	out[0] = wireDense
	if a.sparse {
		out[0] = wireSparse
	}
	le.PutUint32(out[1:5], uint32(len(rows)))
	le.PutUint32(out[5:9], uint32(a.n))
	out = out[9:]
	if !a.sparse {
		for _, r := range rows {
			PutF32s(out, a.DenseRow(r))
			out = out[4*a.n:]
		}
		return buf
	}
	rp, idx := out[:4*(len(rows)+1)], out[4*(len(rows)+1):]
	off := int32(0)
	le.PutUint32(rp, 0)
	for k, r := range rows {
		off += a.rowptr[r+1] - a.rowptr[r]
		le.PutUint32(rp[4*k+4:], uint32(off))
	}
	val := idx[4*off:]
	for _, r := range rows {
		ix, vx := a.SparseRow(r)
		PutI32s(idx, ix)
		PutF32s(val, vx)
		idx, val = idx[4*len(ix):], val[4*len(vx):]
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
	row := a.DenseRow(i)
	GetF32s(row, b.body)
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
		data := make([]float64, m*n)
		off := 0
		for _, b := range blocks {
			GetF32s(data[off:off+b.m*n], b.body)
			off += b.m * n
		}
		return NewDense(m, n, data), nil
	}
	rp := make([]int32, m+1)
	ix := make([]int32, nnz)
	vx := make([]float64, nnz)
	r0, z0 := 0, 0
	for _, b := range blocks {
		// The block's own rowptr lands over the previous block's last entry
		// (its first must be 0), is checked, and is then shifted by the
		// entries before it.
		brp, bix := rp[r0:r0+b.m+1], ix[z0:z0+b.nnz]
		GetI32s(brp, b.body)
		idx := b.body[4*(b.m+1):]
		GetI32s(bix, idx)
		if err := CheckCSR(n, brp, bix); err != nil {
			return nil, err
		}
		for i := range brp {
			brp[i] += int32(z0)
		}
		GetF32s(vx[z0:z0+b.nnz], idx[4*b.nnz:])
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
	buf := make([]byte, F64Size(len(x)))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(x)))
	PutF64s(buf[4:], x)
	return buf
}

// F64Size is the length of EncodeF64's form of n values.
func F64Size(n int) int { return 4 + 8*n }

// AppendF64Rows appends EncodeF64's form of x's values at rows, in order,
// to buf.
func AppendF64Rows(buf []byte, x []float64, rows []int) []byte {
	buf, out := grow(buf, F64Size(len(rows)))
	binary.LittleEndian.PutUint32(out, uint32(len(rows)))
	out = out[4:]
	for _, r := range rows {
		binary.LittleEndian.PutUint64(out[:8], math.Float64bits(x[r]))
		out = out[8:]
	}
	return buf
}

// DecodeF64 parses a buffer produced by EncodeF64.
func DecodeF64(buf []byte) ([]float64, error) {
	n, err := f64Count(buf)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	GetF64s(x, buf[4:])
	return x, nil
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
	GetF64s(dst, buf[4:])
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
	out := make([]float64, total)
	off := 0
	for k, buf := range bufs {
		GetF64s(out[off:off+counts[k]], buf[4:])
		off += counts[k]
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

// The array codec. Each function covers one section of little-endian words
// in storage its caller sized: the byte side must hold at least the words
// the value side says (a shorter one panics before anything is written), and
// the loop walks both sides once with no per-word append, four words a step
// (the bound checks and the loop's own count then cost a quarter as much)
// and the last len%4 one at a time.

// PutF64s writes v into dst[:8*len(v)] as little-endian float64 words.
func PutF64s(dst []byte, v []float64) {
	le := binary.LittleEndian
	dst = section(dst, 8*len(v))
	for ; len(v) >= 4; v, dst = v[4:], dst[32:] {
		d := dst[:32]
		le.PutUint64(d[0:8], math.Float64bits(v[0]))
		le.PutUint64(d[8:16], math.Float64bits(v[1]))
		le.PutUint64(d[16:24], math.Float64bits(v[2]))
		le.PutUint64(d[24:32], math.Float64bits(v[3]))
	}
	for i, x := range v {
		le.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// GetF64s sets dst to the len(dst) little-endian float64 words at the front
// of src.
func GetF64s(dst []float64, src []byte) {
	le := binary.LittleEndian
	src = section(src, 8*len(dst))
	for ; len(dst) >= 4; dst, src = dst[4:], src[32:] {
		s := src[:32]
		dst[0] = math.Float64frombits(le.Uint64(s[0:8]))
		dst[1] = math.Float64frombits(le.Uint64(s[8:16]))
		dst[2] = math.Float64frombits(le.Uint64(s[16:24]))
		dst[3] = math.Float64frombits(le.Uint64(s[24:32]))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(src[8*i:]))
	}
}

// AppendF64s appends v to buf as little-endian float64 words.
func AppendF64s(buf []byte, v []float64) []byte {
	buf, out := grow(buf, 8*len(v))
	PutF64s(out, v)
	return buf
}

// AddF64s adds the little-endian float64 words of in to those of acc, in
// place, word by word: acc[k] = acc[k] + in[k] for each of acc's len(acc)/8
// words. in must be at least as long as acc. As with any Go float addition,
// when both words are NaNs which one's payload the sum carries is not
// specified.
func AddF64s(acc, in []byte) {
	le := binary.LittleEndian
	in = section(in, len(acc))
	add := func(a, b []byte) { // one word
		le.PutUint64(a, math.Float64bits(math.Float64frombits(le.Uint64(a))+math.Float64frombits(le.Uint64(b))))
	}
	for ; len(acc) >= 32; acc, in = acc[32:], in[32:] {
		a, b := acc[:32], in[:32]
		add(a[0:8], b[0:8])
		add(a[8:16], b[8:16])
		add(a[16:24], b[16:24])
		add(a[24:32], b[24:32])
	}
	for ; len(acc) >= 8; acc, in = acc[8:], in[8:] {
		add(acc[:8], in[:8])
	}
}

// PutI32s writes v into dst[:4*len(v)] as little-endian int32 words.
func PutI32s(dst []byte, v []int32) {
	le := binary.LittleEndian
	dst = section(dst, 4*len(v))
	for ; len(v) >= 4; v, dst = v[4:], dst[16:] {
		d := dst[:16]
		le.PutUint32(d[0:4], uint32(v[0]))
		le.PutUint32(d[4:8], uint32(v[1]))
		le.PutUint32(d[8:12], uint32(v[2]))
		le.PutUint32(d[12:16], uint32(v[3]))
	}
	for i, x := range v {
		le.PutUint32(dst[4*i:], uint32(x))
	}
}

// GetI32s sets dst to the len(dst) little-endian int32 words at the front of
// src.
func GetI32s(dst []int32, src []byte) {
	le := binary.LittleEndian
	src = section(src, 4*len(dst))
	for ; len(dst) >= 4; dst, src = dst[4:], src[16:] {
		s := src[:16]
		dst[0] = int32(le.Uint32(s[0:4]))
		dst[1] = int32(le.Uint32(s[4:8]))
		dst[2] = int32(le.Uint32(s[8:12]))
		dst[3] = int32(le.Uint32(s[12:16]))
	}
	for i := range dst {
		dst[i] = int32(le.Uint32(src[4*i:]))
	}
}

// PutF32s writes v into dst[:4*len(v)] as the feature words: each value
// narrowed to float32 (Go's conversion, round to nearest even), little
// endian.
func PutF32s(dst []byte, v []float64) {
	le := binary.LittleEndian
	dst = section(dst, 4*len(v))
	for ; len(v) >= 4; v, dst = v[4:], dst[16:] {
		d := dst[:16]
		le.PutUint32(d[0:4], math.Float32bits(float32(v[0])))
		le.PutUint32(d[4:8], math.Float32bits(float32(v[1])))
		le.PutUint32(d[8:12], math.Float32bits(float32(v[2])))
		le.PutUint32(d[12:16], math.Float32bits(float32(v[3])))
	}
	for i, x := range v {
		le.PutUint32(dst[4*i:], math.Float32bits(float32(x)))
	}
}

// GetF32s sets dst to the len(dst) feature words at the front of src,
// widened to float64.
func GetF32s(dst []float64, src []byte) {
	le := binary.LittleEndian
	src = section(src, 4*len(dst))
	for ; len(dst) >= 4; dst, src = dst[4:], src[16:] {
		s := src[:16]
		dst[0] = float64(math.Float32frombits(le.Uint32(s[0:4])))
		dst[1] = float64(math.Float32frombits(le.Uint32(s[4:8])))
		dst[2] = float64(math.Float32frombits(le.Uint32(s[8:12])))
		dst[3] = float64(math.Float32frombits(le.Uint32(s[12:16])))
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(le.Uint32(src[4*i:])))
	}
}

// section returns b[:n] after checking that b holds n bytes: the reslice
// alone would reach into b's spare capacity.
func section(b []byte, n int) []byte {
	if len(b) < n {
		panic(fmt.Sprintf("la: %d bytes for a %d-byte array section", len(b), n))
	}
	return b[:n]
}

// grow extends buf by n bytes, reallocating at most once, and returns the
// extended slice and its last n bytes.
func grow(buf []byte, n int) (all, tail []byte) {
	all = slices.Grow(buf, n)[:len(buf)+n]
	return all, all[len(buf):]
}
