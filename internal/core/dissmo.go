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
// block-partitioned over the ranks. Every iteration:
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
// loop makes the same pair choices from the same arithmetic, so the result
// is bitwise the trajectory of serial SMO on the full set, up to the
// float32 wire rounding of the initial scatter.
func trainDisSMO(c *mpi.Comm, full *la.Matrix, fullY []float64, p Params, out *ShardResult) error {
	rec := c.Recorder()
	c.SetPhase("partition")
	spInit := rec.BeginVirt(trace.CatInit, "partition", c.Clock())
	local, err := scatterBlocks(c, full, fullY)
	if err != nil {
		return err
	}
	out.PartSize = local.x.Rows()
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
	startIter := 0
	if rt := p.rt; rt != nil {
		if epoch, ga, gf, ok := rt.store.consistentDis(); ok {
			cfg.Restore = &smo.Checkpoint{
				Iters: epoch,
				Alpha: ga[rowStart : rowStart+local.x.Rows()],
				F:     gf[rowStart : rowStart+local.x.Rows()],
			}
			startIter = epoch
			if rt.metrics != nil && c.Rank() == 0 {
				rt.metrics.Counter("casvm_restores_total", "solver resumes from checkpoint").Inc()
			}
		}
	}
	solver, err := smo.New(local.x, local.y, cfg, nil)
	if err != nil {
		return err
	}
	maxIter := p.MaxIter
	if maxIter <= 0 {
		maxIter = 100*m + 10000
	}
	tol := p.Tol
	if tol <= 0 {
		tol = 1e-3
	}

	// The exchange and its column cache live for this attempt only: after a
	// restore every rank starts cold at once, so the replicas still agree.
	ex := newPairExchange(c, local, solver, p, m)
	iters := startIter
	lastDep := startIter
	for iters < maxIter {
		// Deposit before the crash poll: a rank killed at iteration k has
		// already contributed epoch k, so the supervisor can resume from a
		// state every survivor passed through.
		if rt := p.rt; rt != nil && iters > 0 && iters%rt.every == 0 && iters != lastDep {
			lastDep = iters
			ck := solver.Snapshot()
			rt.chargeCheckpoint(c, 16*local.x.Rows())
			rt.store.depositDis(iters, rowStart, ck.Alpha, ck.F)
			// Epoch boundary: absorb any pending worker joins. The deposit
			// above already contributed this rank's block, so the supervisor
			// resumes the grown world from a consistent epoch.
			if err := p.joinInterrupt(c.Rank(), iters); err != nil {
				return err
			}
		}
		if p.Faults != nil {
			if err := p.Faults.CrashCheck(c.Rank(), iters); err != nil {
				return err
			}
		}
		bh, ih, bl, il := solver.LocalExtremes()
		c.Charge(solver.TakeFlops())
		high, low, err := ex.reduce(iters, bh, ih, bl, il)
		if err != nil {
			return err
		}
		if low.val-high.val < 2*tol || high.index < 0 || low.index < 0 {
			break
		}
		eh, el, err := ex.columns(high, low)
		if err != nil {
			return err
		}

		// Identical update arithmetic on every rank.
		khl := p.Kernel.Eval(eh.X, 0, el.X, 0)
		dah, dal := smo.PairSolve(p.C, eh.Y, el.Y, high.val, low.val,
			high.alpha, low.alpha, eh.Diag, el.Diag, khl)
		if dah == 0 && dal == 0 {
			break // numerically stuck pair; matches the serial guard
		}
		if c.Rank() == int(high.rank) {
			solver.AddAlpha(int(high.index), dah)
		}
		if c.Rank() == int(low.rank) {
			solver.AddAlpha(int(low.index), dal)
		}
		solver.ApplyColumns(eh.K, eh.Y, dah, el.K, el.Y, dal)
		c.Charge(solver.TakeFlops())
		iters++
	}
	// Nothing reads a kernel row or column after the loop.
	solver.Release()
	ex.cache.Release()
	out.Iters = iters
	out.trainSec = c.Clock() - out.initSec
	rec.EndVirt(spSolve, c.Clock())
	c.SetPhase("assemble")
	if c.Rank() == 0 {
		// Every rank's cache saw the same lookups; rank 0 speaks for all.
		out.colHits, out.colMisses = ex.cache.Stats()
		if reg := p.Metrics; reg != nil {
			reg.Counter("smo_iterations_total", "SMO iterations executed").Add(int64(iters))
			reg.Counter("smo_row_cache_hits_total", "kernel row-cache hits").Add(out.colHits)
			reg.Counter("smo_row_cache_misses_total", "kernel row-cache misses").Add(out.colMisses)
		}
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
	bias := 0.0
	switch {
	case !math.IsInf(bHigh, 1) && !math.IsInf(bLow, -1):
		bias = (bHigh + bLow) / 2
	case !math.IsInf(bHigh, 1):
		bias = bHigh
	case !math.IsInf(bLow, -1):
		bias = bLow
	}
	out.Model = model.FromSolution(merged.x, merged.y, merged.alpha, bias, p.Kernel)
	out.SVs = out.Model.NSV()
	out.Center = make([]float64, full.Features()) // one model: nothing to route
	return nil
}

// encodeBias packs the rank's local (bHigh, bLow) thresholds.
func encodeBias(solver *smo.Solver) []byte {
	bh, ih, bl, il := solver.LocalExtremes()
	if ih < 0 {
		bh = math.Inf(1)
	}
	if il < 0 {
		bl = math.Inf(-1)
	}
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
