package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"casvm/internal/la"
)

// AllreduceBytes combines one byte payload per rank into a result every
// rank receives: a binomial-tree reduce to rank 0 that folds each child's
// payload into the parent's accumulator with combine, then a tree broadcast
// of rank 0's accumulator — 2(P−1) messages, 2·⌈log₂P⌉ hops on the critical
// path. Every reduction in this package is this one walk with a different
// combine.
//
// mine is the rank's own contribution and the first accumulator.
// combine(acc, in) returns the accumulator with the child payload in folded
// into it; it may write into acc's storage or return other storage the
// caller owns, but must neither modify nor retain in. The accumulator a rank
// sends (and, on rank 0, the result) is retained by the runtime like any
// sent payload. The result is the same slice on every rank that received it
// and must be treated as read-only.
//
// A combine error ends the collective on that rank; returning it from the
// rank function aborts the world, so peers blocked in the walk unblock.
func (c *Comm) AllreduceBytes(mine []byte, combine func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	return c.allreduceBytes("AllreduceBytes", mine, combine)
}

func (c *Comm) allreduceBytes(name string, acc []byte, combine func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	sp := c.beginColl(name)
	defer c.endColl(sp)
	tag := c.nextCollTag()
	p, r := c.world.p, c.rank
	for step := 1; step < p; step <<= 1 {
		if r&step != 0 {
			c.send(r-step, tag, acc)
			break
		}
		if r+step < p {
			var err error
			if acc, err = combine(acc, c.recv(r+step, tag).data); err != nil {
				return nil, err
			}
		}
	}
	return c.treeBcastBytes(0, c.nextCollTag(), acc), nil
}

// Reduction operators over []float64.
type reduceOp int

const (
	opSum reduceOp = iota
	opMax
	opMin
)

func (op reduceOp) apply(a, b float64) float64 {
	switch {
	case op == opSum:
		return a + b
	case op == opMax && b > a, op == opMin && b < a:
		return b
	}
	return a
}

// allreduce combines x across all ranks with op, element-wise on the
// EncodeF64 wire form, charging the reduction flops.
func (c *Comm) allreduce(x []float64, op reduceOp) []float64 {
	out, err := c.allreduceBytes("Allreduce", la.EncodeF64(x), func(acc, in []byte) ([]byte, error) {
		if len(in) != len(acc) || len(in) < 4 || binary.LittleEndian.Uint32(in) != uint32(len(x)) {
			return nil, fmt.Errorf("payload of %d bytes, want %d", len(in), len(acc))
		}
		for off := 4; off < len(acc); off += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(acc[off:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(in[off:]))
			binary.LittleEndian.PutUint64(acc[off:], math.Float64bits(op.apply(a, b)))
		}
		c.Charge(float64(len(x))) // one flop per element combined
		return acc, nil
	})
	var res []float64
	if err == nil {
		res, err = la.DecodeF64(out)
	}
	if err != nil {
		panic(fmt.Sprintf("mpi: allreduce: %v", err))
	}
	return res
}

// AllreduceSum returns the element-wise sum of x across all ranks. Every
// rank receives the same result; x is not modified.
func (c *Comm) AllreduceSum(x []float64) []float64 { return c.allreduce(x, opSum) }

// AllreduceMax returns the element-wise maximum of x across all ranks.
func (c *Comm) AllreduceMax(x []float64) []float64 { return c.allreduce(x, opMax) }

// AllreduceMin returns the element-wise minimum of x across all ranks.
func (c *Comm) AllreduceMin(x []float64) []float64 { return c.allreduce(x, opMin) }

// AllreduceSumInt sums integer counts across ranks (used by the
// partitioners for cluster sizes).
func (c *Comm) AllreduceSumInt(x []int) []int {
	f := make([]float64, len(x))
	for i, v := range x {
		f[i] = float64(v)
	}
	f = c.AllreduceSum(f)
	out := make([]int, len(x))
	for i, v := range f {
		out[i] = int(math.Round(v))
	}
	return out
}

// Loc pairs a value with its owning rank and a local index, for MINLOC /
// MAXLOC reductions.
type Loc struct {
	Val   float64
	Rank  int32
	Index int32
}

const locBytes = 16

func encodeLoc(l Loc) []byte {
	buf := make([]byte, locBytes)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(l.Val))
	binary.LittleEndian.PutUint32(buf[8:], uint32(l.Rank))
	binary.LittleEndian.PutUint32(buf[12:], uint32(l.Index))
	return buf
}

func decodeLoc(b []byte) (Loc, error) {
	if len(b) != locBytes {
		return Loc{}, fmt.Errorf("bad Loc payload %d bytes", len(b))
	}
	return Loc{
		Val:   math.Float64frombits(binary.LittleEndian.Uint64(b)),
		Rank:  int32(binary.LittleEndian.Uint32(b[8:])),
		Index: int32(binary.LittleEndian.Uint32(b[12:])),
	}, nil
}

// allreduceLoc reduces a Loc across ranks keeping the one better prefers.
func (c *Comm) allreduceLoc(l Loc, better func(a, b Loc) bool) Loc {
	out, err := c.allreduceBytes("AllreduceLoc", encodeLoc(l), func(acc, in []byte) ([]byte, error) {
		other, err := decodeLoc(in)
		if err != nil {
			return nil, err
		}
		if mine, _ := decodeLoc(acc); better(other, mine) {
			copy(acc, in)
		}
		return acc, nil
	})
	var res Loc
	if err == nil {
		res, err = decodeLoc(out)
	}
	if err != nil {
		panic(fmt.Sprintf("mpi: allreduceLoc: %v", err))
	}
	return res
}

// AllreduceMinLoc returns the smallest value across ranks together with its
// owner rank and local index (ties resolve to the lower rank for
// determinism).
func (c *Comm) AllreduceMinLoc(val float64, index int) Loc {
	l := Loc{Val: val, Rank: int32(c.rank), Index: int32(index)}
	return c.allreduceLoc(l, func(a, b Loc) bool {
		if a.Val != b.Val {
			return a.Val < b.Val
		}
		return a.Rank < b.Rank
	})
}

// AllreduceMaxLoc returns the largest value across ranks together with its
// owner rank and local index (ties resolve to the lower rank).
func (c *Comm) AllreduceMaxLoc(val float64, index int) Loc {
	l := Loc{Val: val, Rank: int32(c.rank), Index: int32(index)}
	return c.allreduceLoc(l, func(a, b Loc) bool {
		if a.Val != b.Val {
			return a.Val > b.Val
		}
		return a.Rank < b.Rank
	})
}
