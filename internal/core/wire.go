package core

import (
	"fmt"

	"casvm/internal/la"
	"casvm/internal/mpi"
)

// Wire envelopes for the sample payloads the methods exchange: a sample
// block is a matrix section plus a label section plus (optionally) a
// multiplier section, each length-prefixed. Features travel as float32 (see
// internal/la), labels and multipliers as float64.

// part is a travelling set of samples.
type part struct {
	x     *la.Matrix
	y     []float64
	alpha []float64 // nil when not carried
}

// encodePart serialises the selected rows of (x, y[, alpha]).
func encodePart(x *la.Matrix, y, alpha []float64, rows []int) []byte {
	ys := subsetF64(y, rows)
	if alpha == nil {
		return mpi.PackSections(x.EncodeRows(rows), la.EncodeF64(ys))
	}
	return mpi.PackSections(x.EncodeRows(rows), la.EncodeF64(ys), la.EncodeF64(subsetF64(alpha, rows)))
}

// decodePart parses a payload produced by encodePart.
func decodePart(buf []byte) (part, error) {
	secs, err := mpi.UnpackSections(buf, mpi.AnyCount)
	if err != nil {
		return part{}, err
	}
	if len(secs) != 2 && len(secs) != 3 {
		return part{}, fmt.Errorf("core: envelope has %d sections", len(secs))
	}
	x, err := la.DecodeMatrix(secs[0])
	if err != nil {
		return part{}, err
	}
	y, err := la.DecodeF64(secs[1])
	if err != nil {
		return part{}, err
	}
	p := part{x: x, y: y}
	if len(secs) == 3 {
		if p.alpha, err = la.DecodeF64(secs[2]); err != nil {
			return part{}, err
		}
		if len(p.alpha) != len(y) {
			return part{}, fmt.Errorf("core: %d alphas for %d labels", len(p.alpha), len(y))
		}
	}
	if x.Rows() != len(y) {
		return part{}, fmt.Errorf("core: %d rows for %d labels", x.Rows(), len(y))
	}
	return p, nil
}

// mergeParts concatenates travelling parts into one training set. Alphas
// are zero-filled when any contributor lacked them.
func mergeParts(parts []part) part {
	if len(parts) == 1 {
		return parts[0]
	}
	out := parts[0]
	haveAlpha := out.alpha != nil
	for _, q := range parts[1:] {
		out.x = la.Concat(out.x, q.x)
		out.y = append(append([]float64(nil), out.y...), q.y...)
		if q.alpha == nil {
			haveAlpha = false
		}
	}
	if haveAlpha {
		merged := append([]float64(nil), parts[0].alpha...)
		for _, q := range parts[1:] {
			merged = append(merged, q.alpha...)
		}
		out.alpha = merged
	} else {
		out.alpha = nil
	}
	return out
}

// svRows lists the rows whose multiplier is positive: the support vectors.
func svRows(alpha []float64) []int {
	rows := []int{}
	for i, a := range alpha {
		if a > 0 {
			rows = append(rows, i)
		}
	}
	return rows
}

// allRows returns [0, 1, …, m).
func allRows(m int) []int {
	rows := make([]int, m)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// scatterBlocks distributes (x, y) from root in nearly-even contiguous
// blocks; every rank returns its local part. Only root may pass non-nil x.
func scatterBlocks(c *mpi.Comm, x *la.Matrix, y []float64) (part, error) {
	p := c.Size()
	var blocks [][]byte
	if c.Rank() == 0 {
		blocks = make([][]byte, p)
		for r, rows := range evenBlocks(x.Rows(), p) {
			blocks[r] = encodePart(x, y, nil, rows)
		}
	}
	mine := c.Scatterv(0, blocks)
	return decodePart(mine)
}

// regroup redistributes local samples so that rank j ends up with every
// sample assigned to cluster j, as one personalized all-to-all exchange.
// Alphas travel when the local part carries them.
func regroup(c *mpi.Comm, local part, assign []int) (part, error) {
	p := c.Size()
	byDst := make([][]int, p)
	for i, a := range assign {
		byDst[a] = append(byDst[a], i)
	}
	blocks := make([][]byte, p)
	for dst := 0; dst < p; dst++ {
		blocks[dst] = encodePart(local.x, local.y, local.alpha, byDst[dst])
	}
	received := c.Alltoallv(blocks)
	parts := make([]part, 0, p)
	for _, buf := range received {
		q, err := decodePart(buf)
		if err != nil {
			return part{}, err
		}
		parts = append(parts, q)
	}
	return mergeParts(parts), nil
}
