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

// encodePart serialises the selected rows of (x, y[, alpha]) as the
// envelope mpi.PackSections would frame from x.EncodeRows(rows) and
// la.EncodeF64 of the selected labels (and multipliers), written straight
// into one buffer sized up front: each sample is copied once.
func encodePart(x *la.Matrix, y, alpha []float64, rows []int) []byte {
	secs, xs, fs := 2, x.EncodedSize(rows), la.F64Size(len(rows))
	if alpha != nil {
		secs = 3
	}
	buf := mpi.NewEnvelope(secs, xs+(secs-1)*fs)
	buf = x.AppendRows(mpi.AppendSectionLen(buf, xs), rows)
	buf = la.AppendF64Rows(mpi.AppendSectionLen(buf, fs), y, rows)
	if alpha != nil {
		buf = la.AppendF64Rows(mpi.AppendSectionLen(buf, fs), alpha, rows)
	}
	return buf
}

// decodeParts parses payloads produced by encodePart and decodes them, in
// order, straight into one part: one matrix (la.DecodeMatrices), one label
// slice and — when every payload carried them — one multiplier slice, each
// sample written once. The payloads come from other ranks, so everything is
// checked before it is used: each payload's section count, its matrix as
// la.DecodeMatrices checks it (which also refuses payloads of mixed storage
// kinds or feature counts), and its label and multiplier counts against its
// rows. A malformed payload is an error, never a panic.
func decodeParts(bufs [][]byte) (part, error) {
	xs, ys, rows := make([][]byte, len(bufs)), make([][]byte, len(bufs)), make([]int, len(bufs))
	as, aRows := make([][]byte, 0, len(bufs)), make([]int, 0, len(bufs))
	for k, buf := range bufs {
		secs, err := mpi.UnpackSections(buf, mpi.AnyCount)
		if err != nil {
			return part{}, fmt.Errorf("core: part %d: %w", k, err)
		}
		if len(secs) != 2 && len(secs) != 3 {
			return part{}, fmt.Errorf("core: part %d: envelope has %d sections", k, len(secs))
		}
		if rows[k], _, _, err = la.EncodedShape(secs[0]); err != nil {
			return part{}, fmt.Errorf("core: part %d: %w", k, err)
		}
		xs[k], ys[k] = secs[0], secs[1]
		if len(secs) == 3 {
			as, aRows = append(as, secs[2]), append(aRows, rows[k])
		}
	}
	x, err := la.DecodeMatrices(xs)
	if err != nil {
		return part{}, fmt.Errorf("core: %w", err)
	}
	y, err := la.DecodeF64s(ys, rows)
	if err != nil {
		return part{}, fmt.Errorf("core: labels: %w", err)
	}
	// Multipliers a payload carries are checked even when another payload
	// lacks them and none are kept.
	alpha, err := la.DecodeF64s(as, aRows)
	if err != nil {
		return part{}, fmt.Errorf("core: alphas: %w", err)
	}
	out := part{x: x, y: y}
	if len(as) == len(bufs) {
		out.alpha = alpha
	}
	return out, nil
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
		m := x.Rows()
		rows := allRows(m)
		blocks = make([][]byte, p)
		for r := range blocks {
			blocks[r] = encodePart(x, y, nil, rows[blockStart(m, p, r):blockStart(m, p, r+1)])
		}
	}
	return decodeParts([][]byte{c.Scatterv(0, blocks)})
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
	return decodeParts(c.Alltoallv(blocks))
}
