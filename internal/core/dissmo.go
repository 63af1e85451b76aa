package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/smo"
	"casvm/internal/trace"
)

// trainDisSMO implements Cao et al.'s distributed SMO. The samples are
// block-partitioned over the ranks, and every rank runs smo's one loop over
// its block with pairExchange as the exchange. Every iteration:
//
//  1. each rank scans its local f for the extreme KKT violators,
//  2. one allreduce (pairExchange) picks the global (high, low) pair and
//     brings back, with the verdict, each winner's label, multiplier and —
//     the first time a sample wins — its row,
//  3. every rank evaluates the identical clipped pair update and applies it
//     to its local f from the two samples' cached kernel columns, computing
//     a column only for a sample it has not seen (or has evicted).
//
// The paper's Dis-SMO (eqn 9) runs two location-reductions and two row
// broadcasts per iteration and recomputes both columns every time; this
// makes the same pair choices from the same arithmetic. On data already at
// the scatter's float32 precision it is serial SMO's trajectory, up to the
// last bits of K(high, low), which the exchange evaluates with Kernel.Eval.
func trainDisSMO(c *mpi.Comm, full *la.Matrix, fullY []float64, p Params, out *ShardResult) error {
	rec := c.Recorder()
	c.SetPhase("partition")
	spInit := rec.BeginVirt(trace.CatInit, "partition", c.Clock())
	local, err := scatterBlocks(c, full, fullY)
	if err != nil {
		return err
	}
	rows := local.x.Rows()
	out.PartSize = rows
	out.initSec = c.Clock()
	rec.EndVirt(spInit, c.Clock())

	// The rank's first global row: Dis-SMO checkpoints live in global row
	// space, so deposits and restores address the epoch arrays by offset.
	// Any contiguous block layout (any P) slices the same arrays, which is
	// what lets shrink recovery re-partition without conversion.
	m := full.Rows()
	rowStart := blockStart(m, c.Size(), c.Rank())

	c.SetPhase("solve")
	spSolve := rec.BeginVirt(trace.CatTrain, "solve", c.Clock())
	cfg := p.solverConfig()
	cfg.Trace = c.Recorder()
	if c.Rank() == 0 {
		cfg.Metrics = p.Metrics // every rank's cache sees the same lookups
	}
	if rt := p.rt; rt != nil {
		if epoch, ga, gf, ok := rt.store.consistentDis(); ok {
			cfg.Restore = &smo.Checkpoint{
				Iters: epoch,
				Alpha: ga[rowStart : rowStart+rows],
				F:     gf[rowStart : rowStart+rows],
			}
			if rt.metrics != nil && c.Rank() == 0 {
				rt.metrics.Counter("casvm_restores_total", "solver resumes from checkpoint").Inc()
			}
		}
		cfg.CheckpointEvery = rt.every
		cfg.CheckpointSink = func(ck *smo.Checkpoint) {
			if ck.Final {
				return // a converged Dis-SMO is not resumed, it is done
			}
			rt.chargeCheckpoint(c, 16*rows)
			rt.store.depositDis(ck.Iters, rowStart, ck.Alpha, ck.F)
		}
	}
	if p.Faults != nil {
		// The loop deposits before it polls, so a rank killed at
		// iteration k has already contributed epoch k.
		cfg.Interrupt = func(iter int) error { return p.Faults.CrashCheck(c.Rank(), iter) }
	}
	solver, err := smo.New(local.x, local.y, cfg, nil)
	if err != nil {
		return err
	}
	// The exchange and its column cache live for this attempt only: after a
	// restore every rank starts cold at once, so the replicas still agree.
	ex := newPairExchange(c, local, solver, p, m)
	res, err := solver.Run(ex, m)
	// Nothing reads a kernel column after the loop.
	ex.cache.Release()
	if err != nil {
		return err
	}
	out.Iters = res.Iters
	out.trainSec = c.Clock() - out.initSec
	rec.EndVirt(spSolve, c.Clock())
	c.SetPhase("assemble")
	if c.Rank() == 0 {
		out.colHits, out.colMisses = ex.Stats()
	}

	// Assemble the global model at rank 0: gather (SV rows, y, α, local
	// bHigh/bLow contributions).
	payload := mpi.PackSections(
		encodePart(local.x, local.y, solver.Alpha(), svRows(solver.Alpha())),
		encodeBias(solver),
	)
	gathered := c.Gatherv(0, payload)
	if c.Rank() != 0 {
		return nil
	}
	parts := make([][]byte, 0, c.Size())
	bHigh, bLow := math.Inf(1), math.Inf(-1)
	for r, g := range gathered {
		q, h, l, err := decodeDisSMOResult(g)
		if err != nil {
			return fmt.Errorf("core: dis-smo rank %d result: %w", r, err)
		}
		parts = append(parts, q)
		if h < bHigh {
			bHigh = h
		}
		if l > bLow {
			bLow = l
		}
	}
	merged, err := decodeParts(parts)
	if err != nil {
		return fmt.Errorf("core: dis-smo support vectors: %w", err)
	}
	out.Model = model.FromSolution(merged.x, merged.y, merged.alpha, smo.Threshold(bHigh, bLow), p.Kernel)
	out.SVs = out.Model.NSV()
	out.Center = make([]float64, full.Features()) // one model: nothing to route
	return nil
}

// encodeBias packs the rank's local (bHigh, bLow) thresholds.
func encodeBias(solver *smo.Solver) []byte {
	bh, _, bl, _ := solver.LocalExtremes() // ±Inf for an empty set
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(bh))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(bl))
	return buf
}

// decodeDisSMOResult splits one rank's final gather payload into its support
// vectors, still encoded for decodeParts, and its (bHigh, bLow) bias
// contribution. The bytes come from another process: both the section count
// and the bias section's length are checked before they are indexed.
func decodeDisSMOResult(buf []byte) (svs []byte, bHigh, bLow float64, err error) {
	secs, err := mpi.UnpackSections(buf, 2)
	if err != nil {
		return nil, 0, 0, err
	}
	svs, b := secs[0], secs[1]
	if len(b) != 16 {
		return nil, 0, 0, &mpi.EnvelopeError{Reason: fmt.Sprintf("bias section of %d bytes, want 16", len(b))}
	}
	bHigh = math.Float64frombits(binary.LittleEndian.Uint64(b))
	bLow = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return svs, bHigh, bLow, nil
}
