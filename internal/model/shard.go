package model

import (
	"encoding/binary"
	"fmt"
	"math"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

// Binary shard encoding: what one rank's trained model and routing center
// look like wherever they leave the process — the cluster's rank-done frame,
// and each model of a model file (io.go), which is the set's head and then
// its shards. A shard is the numbers it is, little endian, as ShardSections
// byte sections the caller frames with mpi.PackSections beside its own:
//
//	head   : storage kind u8 (0 dense, 1 CSR) · bias f64 · fallback f64
//	alpha  : nsv f64
//	y      : nsv f64
//	center : features f64
//	rowptr : CSR (nsv+1) i32, dense empty
//	idx    : CSR nnz i32, dense empty
//	val    : CSR nnz f64, dense nsv·features f64
//
// nsv, features and nnz are the section lengths — a frame cannot declare more
// than it carries. The kernel does not travel: the receiver knows the job's.
// Every array section is written and read by la's one array codec (PutF64s,
// GetF64s, PutI32s, GetI32s, AppendF64s) into storage sized from the section
// lengths, as the model file's head and the hash's stream take their floats
// from AppendF64s.
const ShardSections = 7

const (
	secHead = iota
	secAlpha
	secY
	secCenter
	secRowptr
	secIdx
	secVal
)

const shardHeadLen = 1 + 8 + 8

// EncodeShard returns the ShardSections sections of m and its routing
// center, which has one entry per feature.
func EncodeShard(m *Model, center []float64) [][]byte {
	head := make([]byte, shardHeadLen)
	binary.LittleEndian.PutUint64(head[1:], math.Float64bits(m.B))
	binary.LittleEndian.PutUint64(head[9:], math.Float64bits(m.Fallback))
	secs := make([][]byte, ShardSections)
	secs[secHead] = head
	secs[secAlpha] = la.AppendF64s(nil, m.Alpha)
	secs[secY] = la.AppendF64s(nil, m.SVY)
	secs[secCenter] = la.AppendF64s(nil, center)
	nsv, n := m.NSV(), m.SVX.Features()
	if !m.SVX.Sparse() {
		val := make([]byte, 8*nsv*n)
		for i := 0; i < nsv; i++ {
			la.PutF64s(val[8*n*i:], m.SVX.DenseRow(i))
		}
		secs[secVal] = val
		return secs
	}
	head[0] = 1
	nnz := m.SVX.NNZ()
	rowptr, idx, val := make([]byte, 4*(nsv+1)), make([]byte, 4*nnz), make([]byte, 8*nnz)
	for i, end := 0, 0; i < nsv; i++ {
		ix, vx := m.SVX.SparseRow(i)
		la.PutI32s(idx[4*end:], ix)
		la.PutF64s(val[8*end:], vx)
		end += len(ix)
		binary.LittleEndian.PutUint32(rowptr[4*i+4:], uint32(end))
	}
	secs[secRowptr], secs[secIdx], secs[secVal] = rowptr, idx, val
	return secs
}

// DecodeShard parses sections EncodeShard produced in another process into a
// model under kernel k and its center. features is the width of the
// receiver's data; a shard of any other width is an error. Every length is
// checked against the sections before anything is allocated, the CSR
// structure goes through la.CheckCSR, and a non-finite number anywhere or a
// fallback other than ±1 is an error: what comes back can be assembled,
// evaluated and hashed without a further look.
func DecodeShard(secs [][]byte, k kernel.Params, features int) (*Model, []float64, error) {
	if len(secs) != ShardSections {
		return nil, nil, fmt.Errorf("model: shard has %d sections, want %d", len(secs), ShardSections)
	}
	head := secs[secHead]
	if len(head) != shardHeadLen || head[0] > 1 {
		return nil, nil, fmt.Errorf("model: shard head of %d bytes", len(head))
	}
	sparse := head[0] == 1
	nsv, n := len(secs[secAlpha])/8, len(secs[secCenter])/8
	nnz := len(secs[secVal]) / 8
	switch {
	case len(secs[secAlpha]) != 8*nsv || len(secs[secY]) != 8*nsv:
		return nil, nil, fmt.Errorf("model: shard carries %d alpha bytes and %d label bytes", len(secs[secAlpha]), len(secs[secY]))
	case n < 1 || len(secs[secCenter]) != 8*n:
		return nil, nil, fmt.Errorf("model: shard center of %d bytes", len(secs[secCenter]))
	case n != features:
		return nil, nil, fmt.Errorf("model: shard has %d features, want %d", n, features)
	case len(secs[secVal]) != 8*nnz:
		return nil, nil, fmt.Errorf("model: shard values of %d bytes", len(secs[secVal]))
	case sparse && (len(secs[secRowptr]) != 4*(nsv+1) || len(secs[secIdx]) != 4*nnz):
		return nil, nil, fmt.Errorf("model: sparse shard of %d SVs and %d values has %d rowptr and %d index bytes",
			nsv, nnz, len(secs[secRowptr]), len(secs[secIdx]))
	case !sparse && (len(secs[secRowptr]) != 0 || len(secs[secIdx]) != 0 || nnz/n != nsv || nnz%n != 0):
		return nil, nil, fmt.Errorf("model: dense shard of %d SVs × %d features carries %d values", nsv, n, nnz)
	}
	m := &Model{Kernel: k, Alpha: make([]float64, nsv), SVY: make([]float64, nsv),
		B:        math.Float64frombits(binary.LittleEndian.Uint64(head[1:])),
		Fallback: math.Float64frombits(binary.LittleEndian.Uint64(head[9:]))}
	center, val := make([]float64, n), make([]float64, nnz)
	la.GetF64s(m.Alpha, secs[secAlpha])
	la.GetF64s(m.SVY, secs[secY])
	la.GetF64s(center, secs[secCenter])
	la.GetF64s(val, secs[secVal])
	for _, v := range [][]float64{{m.B, m.Fallback}, m.Alpha, m.SVY, center, val} {
		if !allFinite(v) {
			return nil, nil, fmt.Errorf("model: shard carries a non-finite number")
		}
	}
	if m.Fallback != 1 && m.Fallback != -1 {
		return nil, nil, fmt.Errorf("model: shard fallback %v is not a ±1 label", m.Fallback)
	}
	if sparse {
		rowptr, idx := make([]int32, nsv+1), make([]int32, nnz)
		la.GetI32s(rowptr, secs[secRowptr])
		la.GetI32s(idx, secs[secIdx])
		if err := la.CheckCSR(n, rowptr, idx); err != nil {
			return nil, nil, err
		}
		if int(rowptr[nsv]) != nnz {
			return nil, nil, fmt.Errorf("model: sparse shard rows end at %d of %d values", rowptr[nsv], nnz)
		}
		m.SVX = la.NewSparse(nsv, n, rowptr, idx, val)
	} else {
		m.SVX = la.NewDense(nsv, n, val)
	}
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	return m, center, nil
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
