package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"

	"casvm/internal/la"
)

// headTag opens a set's head; hashChunk is how much Hash writes at a time.
const (
	headTag   = "casvm-model-set/bin1"
	hashChunk = 4 << 10
)

// Hash returns the set's fingerprint: the SHA-256 hex digest of a canonical
// binary form of its numbers. Every count is a u32, every float64 its bits,
// all little endian:
//
//	head    : appendHead, the model file's section 0 (io.go)
//	centers : P·features f64, row-major
//	model j : nsv · bias · fallback, then per SV
//	          α · y · nonzeros · (column u32 · value f64) per nonzero entry
//
// An SV contributes only its nonzero entries, so a dense set, its CSR twin
// and a CSR set storing explicit zeros hash equal: the digest is independent
// of storage, which is why it is not the SHA-256 of the model file (io.go).
func (s *Set) Hash() string {
	h := sha256.New()
	b := appendHead(make([]byte, 0, hashChunk+hashChunk/4), s)
	for c := 0; c < s.Centers.Rows(); c++ {
		b = spill(h, la.AppendF64s(b, s.Centers.DenseRow(c)))
	}
	for _, m := range s.Models {
		b = binary.LittleEndian.AppendUint32(b, uint32(m.NSV()))
		b = la.AppendF64s(b, []float64{m.B, m.Fallback})
		for i := 0; i < m.NSV(); i++ {
			b = la.AppendF64s(b, []float64{m.Alpha[i], m.SVY[i]})
			at := len(b)
			b = append(b, 0, 0, 0, 0) // nonzeros, filled in below
			if m.SVX.Sparse() {
				ix, vx := m.SVX.SparseRow(i)
				for t, col := range ix {
					b = appendNonzero(b, int(col), vx[t])
				}
			} else {
				for col, v := range m.SVX.DenseRow(i) {
					b = appendNonzero(b, col, v)
				}
			}
			binary.LittleEndian.PutUint32(b[at:], uint32((len(b)-at-4)/12))
			b = spill(h, b)
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(b[:0]))
}

// spill writes b to w once it holds hashChunk bytes and returns it emptied;
// SHA-256 never fails a write.
func spill(w io.Writer, b []byte) []byte {
	if len(b) < hashChunk {
		return b
	}
	w.Write(b)
	return b[:0]
}

func appendStr(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

func appendNonzero(b []byte, col int, v float64) []byte {
	if v != 0 {
		b = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(b, uint32(col)), math.Float64bits(v))
	}
	return b
}
