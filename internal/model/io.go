package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/mpi"
)

// Model-file format: one mpi.PackSections envelope of 1 + P·ShardSections
// sections. Every count is a u32, every float64 its bits, every string a u32
// length and its bytes, all little endian:
//
//	section 0 : the head (appendHead) — tag "casvm-model-set/bin1" · P ·
//	            features · kernel kind (its name) · gamma · coef · scale ·
//	            degree · meta entry count, then key · value per entry,
//	            sorted by key
//	model j   : the ShardSections sections EncodeShard(model j, center j)
//	            writes, the bytes a rank-done frame carries
//
// There is one encoder per part: the head is what Set.Hash digests first,
// and a model is its shard. A model keeps its storage kind across a file, so
// a dense set loads dense and decides bit for bit as it did. Set.Hash is not
// the SHA-256 of the file: after the head it digests each SV's nonzero
// entries, so the fingerprint does not depend on storage, and writing that
// form as the file would drop the storage kind and spell a dense SV as
// 12-byte (column, value) pairs instead of 8 bytes a feature.

// textHeader opens the text model files earlier releases wrote; LoadSet
// names it rather than reporting a malformed envelope.
const textHeader = "casvm-model-set v1"

// SaveSet writes the model set in the format above.
func SaveSet(w io.Writer, s *Set) error {
	secs := [][]byte{appendHead(nil, s)}
	for j, m := range s.Models {
		secs = append(secs, EncodeShard(m, s.Centers.DenseRow(j))...)
	}
	_, err := w.Write(mpi.PackSections(secs...))
	return err
}

// appendHead appends the set's head, the file's section 0.
func appendHead(b []byte, s *Set) []byte {
	k := s.Models[0].Kernel
	b = appendStr(b, headTag)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.P()))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.Centers.Features()))
	b = la.AppendF64s(appendStr(b, k.Kind.String()), []float64{k.Gamma, k.Coef, k.ScaleA})
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Degree))
	keys := make([]string, 0, len(s.Meta))
	for key := range s.Meta {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, key := range keys {
		b = appendStr(appendStr(b, key), s.Meta[key])
	}
	return b
}

// LoadSet reads a model set SaveSet wrote. Every count is held to the bytes
// that carry it before anything is allocated, the head's floats must be
// finite, its kernel named as Kind.String prints it and its meta keys
// strictly increasing, and each model goes through DecodeShard under the
// head's kernel and width, so a set that loads re-saves to the same bytes.
// A truncated file, a trailing byte and a text model file are errors.
func LoadSet(buf []byte) (*Set, error) {
	if bytes.HasPrefix(buf, []byte(textHeader)) {
		return nil, fmt.Errorf("model: a %q text model file; that format is no longer read, save the set again", textHeader)
	}
	secs, err := mpi.UnpackSections(buf, mpi.AnyCount)
	if err != nil {
		return nil, fmt.Errorf("model: not a model file: %w", err)
	}
	if len(secs) == 0 {
		return nil, fmt.Errorf("model: not a model file: no head")
	}
	h := headReader{b: secs[0]}
	tag, p, n, name := h.str(), int(h.u32()), int(h.u32()), h.str()
	k := kernel.Params{Gamma: h.f64(), Coef: h.f64(), ScaleA: h.f64(), Degree: int(int32(h.u32()))}
	var meta map[string]string
	sorted := true
	for i, count, last := uint32(0), h.u32(), ""; i < count && !h.short; i++ {
		key, value := h.str(), h.str()
		if meta == nil {
			meta = map[string]string{}
		}
		sorted = sorted && (i == 0 || key > last)
		meta[key], last = value, key
	}
	switch {
	case h.short || len(h.b) != 0 || tag != headTag:
		return nil, fmt.Errorf("model: not a model file: head of %d bytes", len(secs[0]))
	case !allFinite([]float64{k.Gamma, k.Coef, k.ScaleA}):
		return nil, fmt.Errorf("model: kernel carries a non-finite number")
	case !sorted:
		return nil, fmt.Errorf("model: meta keys out of order")
	case p < 1 || len(secs) != 1+ShardSections*p:
		return nil, fmt.Errorf("model: %d models in %d sections", p, len(secs))
	case n < 1 || n > len(buf)/(8*p):
		return nil, fmt.Errorf("model: %d features in a %d-byte file", n, len(buf))
	}
	if k.Kind, err = kernel.ParseKind(name); err != nil || k.Kind.String() != name {
		return nil, fmt.Errorf("model: kernel %q", name)
	}
	set := &Set{Models: make([]*Model, p), Meta: meta}
	centers := make([]float64, 0, p*n)
	for j := range set.Models {
		m, center, err := DecodeShard(secs[1+ShardSections*j:1+ShardSections*(j+1)], k, n)
		if err != nil {
			return nil, fmt.Errorf("model %d: %w", j, err)
		}
		set.Models[j], centers = m, append(centers, center...)
	}
	set.Centers = la.NewDense(p, n, centers)
	return set, nil
}

// headReader takes a head apart. A read past the end sets short and returns
// zero; so does every read after it.
type headReader struct {
	b     []byte
	short bool
}

func (r *headReader) u32() uint32 {
	if r.short || len(r.b) < 4 {
		r.short = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *headReader) f64() float64 {
	lo := r.u32()
	return math.Float64frombits(uint64(lo) | uint64(r.u32())<<32)
}

func (r *headReader) str() string {
	n := r.u32()
	if r.short || uint64(n) > uint64(len(r.b)) {
		r.short = true
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}
