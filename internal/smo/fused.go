package smo

// The fused SMO hot path. Every iteration of the seed solver made three
// O(m) passes over f and the two cached kernel rows: the f-update's two
// axpy sweeps and the next iteration's LocalExtremes scan. This file merges
// the two axpy sweeps and the *next* iteration's extremes scan into a
// single pass — each element of f is loaded once, updated with both
// kernel-row contributions, and immediately tested for the (bHigh, iHigh,
// bLow, iLow) working-set extremes — halving memory traffic over the
// solver's dominant arrays.
// The scans parallelize across the persistent worker pool (internal/pool)
// with deterministic chunking.
//
// Two invariants are load-bearing:
//
//   - Bit-identity. The per-element update is computed as two dependent
//     additions (f + ch·rh, then + cl·rl), exactly the arithmetic of the
//     seed's two separate axpy passes; extremes reduce across chunks in
//     chunk order with strict comparisons, which reproduces the serial
//     scan's lowest-index tie-breaking. Results are therefore identical
//     for any thread count, including 1.
//
//   - Flop accounting. The fused pass charges only the update's 4·m; the
//     scan's 2·m is charged when the cached extremes are consumed by
//     LocalExtremes. Total flops per solve — and hence virtual time —
//     are exactly the seed's, fused or not, parallel or not.

import (
	"math"

	"casvm/internal/trace"
)

// scanGrain is the minimum number of f-elements per chunk worth handing
// to a pool worker for the light O(m) passes (≈6 flops per element).
const scanGrain = 2048

// extremes is one chunk's partial working-set scan result.
type extremes struct {
	bHigh, bLow float64
	iHigh, iLow int
}

func newExtremes() extremes {
	return extremes{bHigh: math.Inf(1), iHigh: -1, bLow: math.Inf(-1), iLow: -1}
}

// invalidateExtremes drops the cached working-set extremes; every mutation
// of alpha or f must call it.
func (s *Solver) invalidateExtremes() { s.extValid = false }

// setExtremes records a freshly computed scan result as the cached
// extremes.
func (s *Solver) setExtremes(e extremes) {
	s.ext = e
	s.extValid = true
}

// reduceExtremes folds per-chunk partials in chunk order. Strict
// comparisons keep the earliest chunk's candidate on ties, matching the
// serial scan's lowest-index tie-breaking bit for bit.
func (s *Solver) reduceExtremes(nc int) extremes {
	r := s.chunkExt[0]
	for c := 1; c < nc; c++ {
		e := s.chunkExt[c]
		if e.bHigh < r.bHigh {
			r.bHigh, r.iHigh = e.bHigh, e.iHigh
		}
		if e.bLow > r.bLow {
			r.bLow, r.iLow = e.bLow, e.iLow
		}
	}
	return r
}

// scanExtremesRange computes the working-set extremes over f[lo:hi]: the
// strict comparisons keep the lowest index on ties, and a non-member's +Inf
// (Solver.outHigh, outLow) keeps it out of both — the two branches are taken
// only when a new extreme is found, which is rare.
func (s *Solver) scanExtremesRange(lo, hi int) extremes {
	e := newExtremes()
	f, outHigh, outLow := s.f[lo:hi], s.outHigh[lo:hi], s.outLow[lo:hi]
	for k, v := range f {
		if v+outHigh[k] < e.bHigh {
			e.bHigh, e.iHigh = v, lo+k
		}
		if v-outLow[k] > e.bLow {
			e.bLow, e.iLow = v, lo+k
		}
	}
	return e
}

// scanExtremes runs the full extremes scan, fanning out across the pool
// when the range is large enough to pay for it. It does not charge flops;
// LocalExtremes owns the 2·m charge.
func (s *Solver) scanExtremes() extremes {
	n := len(s.f)
	if s.pl != nil && n >= 2*scanGrain {
		nc := s.pl.ParallelForChunks(s.cfg.Threads, n, scanGrain, func(c, lo, hi int) {
			s.chunkExt[c] = s.scanExtremesRange(lo, hi)
		})
		return s.reduceExtremes(nc)
	}
	return s.scanExtremesRange(0, n)
}

// fusedRange applies both kernel-row updates to f[lo:hi] and scans the
// updated values for extremes in the same pass. The update arithmetic is
// two dependent additions per element — exactly the seed's two axpy
// sweeps — so values are bit-identical to the unfused path.
func (s *Solver) fusedRange(lo, hi int, rh, rl []float64, ch, cl float64) extremes {
	e := newExtremes()
	f, outHigh, outLow := s.f[lo:hi], s.outHigh[lo:hi], s.outLow[lo:hi]
	rh, rl = rh[lo:hi], rl[lo:hi]
	for k, v := range f {
		v += ch * rh[k]
		v += cl * rl[k]
		f[k] = v
		if v+outHigh[k] < e.bHigh {
			e.bHigh, e.iHigh = v, lo+k
		}
		if v-outLow[k] > e.bLow {
			e.bLow, e.iLow = v, lo+k
		}
	}
	return e
}

// fusedUpdateScan is the fused hot-path iteration tail: it applies eqn
// (5)'s f-update for the optimised pair and computes the next iteration's
// working-set extremes in the same pass over f. It charges only the
// update's 4·m flops; the cached extremes carry the scan, which
// LocalExtremes charges on consumption. Must be called after PairDeltas
// (alpha already holds the pair's new values).
func (s *Solver) fusedUpdateScan(iHigh, iLow int, u PairUpdate) {
	sp := s.rec.Begin(trace.CatSolver, "update")
	defer s.rec.End(sp)
	ch := u.DAlphaHigh * s.y[iHigh]
	cl := u.DAlphaLow * s.y[iLow]
	rh := s.cache.Row(iHigh)
	rl := s.cache.Row(iLow)
	n := len(s.f)
	if s.pl != nil && n >= 2*scanGrain {
		nc := s.pl.ParallelForChunks(s.cfg.Threads, n, scanGrain, func(c, lo, hi int) {
			s.chunkExt[c] = s.fusedRange(lo, hi, rh, rl, ch, cl)
		})
		s.setExtremes(s.reduceExtremes(nc))
	} else {
		s.setExtremes(s.fusedRange(0, n, rh, rl, ch, cl))
	}
	s.flops += float64(4 * n)
}
