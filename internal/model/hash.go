package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// hashTag opens what Hash digests; hashChunk is how much it writes at a time.
const (
	hashTag   = "casvm-model-set/bin1"
	hashChunk = 4 << 10
)

// Hash returns the set's fingerprint: the SHA-256 hex digest of a canonical
// binary form of its numbers. Every count is a u32, every float64 its bits,
// every string a u32 length and its bytes, all little endian:
//
//	tag     : "casvm-model-set/bin1"
//	head    : P · features · kernel kind (its name) · gamma · coef · scale · degree
//	meta    : entry count, then key · value per entry, sorted by key
//	centers : P·features f64, row-major
//	model j : nsv · bias · fallback, then per SV
//	          α · y · nonzeros · (column u32 · value f64) per nonzero entry
//
// An SV contributes only its nonzero entries, as in the text format, so a
// dense set, the CSR set LoadSet(SaveSet(set)) returns, and a CSR set storing
// explicit zeros hash equal: the digest is independent of storage.
func (s *Set) Hash() string {
	h := sha256.New()
	k := s.Models[0].Kernel
	b := appendStr(make([]byte, 0, hashChunk+hashChunk/4), hashTag)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.P()))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.Centers.Features()))
	b = appendF64s(appendStr(b, k.Kind.String()), []float64{k.Gamma, k.Coef, k.ScaleA})
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Degree))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Meta)))
	for _, key := range sortedKeys(s.Meta) {
		b = appendStr(appendStr(b, key), s.Meta[key])
	}
	for c := 0; c < s.Centers.Rows(); c++ {
		b, _ = spill(h, appendF64s(b, s.Centers.DenseRow(c)), hashChunk)
	}
	for _, m := range s.Models {
		b = binary.LittleEndian.AppendUint32(b, uint32(m.NSV()))
		b = appendF64s(b, []float64{m.B, m.Fallback})
		for i := 0; i < m.NSV(); i++ {
			b = appendF64s(b, []float64{m.Alpha[i], m.SVY[i]})
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
			b, _ = spill(h, b, hashChunk) // SHA-256 never fails a write
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(b[:0]))
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
