package smo

// The fused SMO hot path. Every iteration of the seed solver made three
// O(m) passes over f and the two cached kernel rows: the f-update's two
// axpy sweeps and the next iteration's LocalExtremes scan. This file merges
// the two axpy sweeps and the *next* iteration's extremes scan into a
// single pass — each element of f is loaded once, updated with both
// kernel-row contributions, and immediately tested for the (bHigh, iHigh,
// bLow, iLow) working-set extremes — halving memory traffic over the
// solver's dominant arrays. The pass is la.UpdateScan, four AVX2 lanes wide
// where the CPU has them; Step's local rows and Dis-SMO's replicated
// columns (ApplyColumns) both go through it.
// The scans parallelize across the persistent worker pool (internal/pool)
// with deterministic chunking.
//
// Two invariants are load-bearing:
//
//   - Bit-identity. The per-element update is computed as two dependent
//     additions (f + ch·rh, then + cl·rl), exactly the arithmetic of the
//     seed's two separate axpy passes, in the lanes and in the portable
//     loop alike; extremes reduce across lanes and then chunks with strict
//     comparisons, ties to the lower index, which reproduces the serial
//     scan's lowest-index tie-breaking. Results are therefore identical
//     for any thread count, including 1, with the lanes or without.
//
//   - Flop accounting. The fused pass charges only the update's 4·m; the
//     scan's 2·m is charged when the cached extremes are consumed by
//     LocalExtremes. Total flops per solve — and hence virtual time —
//     are exactly the seed's, fused or not, parallel or not.

import (
	"casvm/internal/la"
	"casvm/internal/trace"
)

// scanGrain is the minimum number of f-elements per chunk worth handing
// to a pool worker for the light O(m) passes (≈6 flops per element).
const scanGrain = 2048

// invalidateExtremes drops the cached working-set extremes; every mutation
// of alpha or f must call it.
func (s *Solver) invalidateExtremes() { s.extValid = false }

// setExtremes records a freshly computed scan result as the cached
// extremes.
func (s *Solver) setExtremes(e la.Extremes) {
	s.ext = e
	s.extValid = true
}

// reduceExtremes folds per-chunk partials in chunk order. Strict
// comparisons keep the earliest chunk's candidate on ties, matching the
// serial scan's lowest-index tie-breaking bit for bit.
func (s *Solver) reduceExtremes(nc int) la.Extremes {
	r := s.chunkExt[0]
	for c := 1; c < nc; c++ {
		e := s.chunkExt[c]
		if e.BHigh < r.BHigh {
			r.BHigh, r.IHigh = e.BHigh, e.IHigh
		}
		if e.BLow > r.BLow {
			r.BLow, r.ILow = e.BLow, e.ILow
		}
	}
	return r
}

// scanExtremesRange computes the working-set extremes over f[lo:hi]: the
// strict comparisons keep the lowest index on ties, and a non-member's +Inf
// (Solver.outHigh, outLow) keeps it out of both — the two branches are taken
// only when a new extreme is found, which is rare.
func (s *Solver) scanExtremesRange(lo, hi int) la.Extremes {
	e := la.NoExtremes()
	f, outHigh, outLow := s.f[lo:hi], s.outHigh[lo:hi], s.outLow[lo:hi]
	for k, v := range f {
		if v+outHigh[k] < e.BHigh {
			e.BHigh, e.IHigh = v, lo+k
		}
		if v-outLow[k] > e.BLow {
			e.BLow, e.ILow = v, lo+k
		}
	}
	return e
}

// scanExtremes runs the full extremes scan, fanning out across the pool
// when the range is large enough to pay for it. It does not charge flops;
// LocalExtremes owns the 2·m charge.
func (s *Solver) scanExtremes() la.Extremes {
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
// updated values for extremes in the same pass (la.UpdateScan), reporting
// solver indices.
func (s *Solver) fusedRange(lo, hi int, rh, rl []float64, ch, cl float64) la.Extremes {
	e := la.UpdateScan(s.f[lo:hi], rh[lo:hi], rl[lo:hi], s.outHigh[lo:hi], s.outLow[lo:hi], ch, cl)
	if e.IHigh >= 0 {
		e.IHigh += lo
	}
	if e.ILow >= 0 {
		e.ILow += lo
	}
	return e
}

// updateScan is eqn (5)'s f-update, f += ch·rh + cl·rl, fused with the next
// iteration's working-set scan, whose extremes it caches. The membership
// arrays must already reflect the pair's new multipliers. It charges only
// the update's 4·m flops; LocalExtremes charges the scan on consumption.
func (s *Solver) updateScan(rh, rl []float64, ch, cl float64) {
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

// fusedUpdateScan is the fused hot-path iteration tail for a local pair:
// updateScan over the pair's cached kernel rows. Must be called after
// PairDeltas (alpha already holds the pair's new values).
func (s *Solver) fusedUpdateScan(iHigh, iLow int, u PairUpdate) {
	sp := s.rec.Begin(trace.CatSolver, "update")
	defer s.rec.End(sp)
	rh := s.cache.Row(iHigh)
	rl := s.cache.Row(iLow)
	s.updateScan(rh, rl, u.DAlphaHigh*s.y[iHigh], u.DAlphaLow*s.y[iLow])
}
