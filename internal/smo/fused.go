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
//
// Two invariants are load-bearing:
//
//   - Bit-identity. The per-element update is computed as two dependent
//     additions (f + ch·rh, then + cl·rl), exactly the arithmetic of the
//     seed's two separate axpy passes, in the lanes and in the portable
//     loop alike; extremes reduce across lanes with strict comparisons,
//     ties to the lower index, which reproduces the scalar scan's
//     lowest-index tie-breaking. Results are therefore identical with the
//     lanes or without.
//
//   - Flop accounting. The fused pass charges only the update's 4·m; the
//     scan's 2·m is charged when the cached extremes are consumed by
//     LocalExtremes. Total flops per solve — and hence virtual time —
//     are exactly the seed's, fused or not.

import (
	"casvm/internal/la"
	"casvm/internal/trace"
)

// invalidateExtremes drops the cached working-set extremes; every mutation
// of alpha or f must call it.
func (s *Solver) invalidateExtremes() { s.extValid = false }

// setExtremes records a freshly computed scan result as the cached
// extremes.
func (s *Solver) setExtremes(e la.Extremes) {
	s.ext = e
	s.extValid = true
}

// scanExtremes computes the working-set extremes over f: the strict
// comparisons keep the lowest index on ties, and a non-member's +Inf
// (Solver.outHigh, outLow) keeps it out of both — the two branches are taken
// only when a new extreme is found, which is rare. It does not charge flops;
// LocalExtremes owns the 2·m charge.
func (s *Solver) scanExtremes() la.Extremes {
	e := la.NoExtremes()
	outHigh, outLow := s.outHigh, s.outLow
	for k, v := range s.f {
		if v+outHigh[k] < e.BHigh {
			e.BHigh, e.IHigh = v, k
		}
		if v-outLow[k] > e.BLow {
			e.BLow, e.ILow = v, k
		}
	}
	return e
}

// updateScan is eqn (5)'s f-update, f += ch·rh + cl·rl, fused with the next
// iteration's working-set scan (la.UpdateScan), whose extremes it caches.
// The membership arrays must already reflect the pair's new multipliers. It
// charges only the update's 4·m flops; LocalExtremes charges the scan on
// consumption.
func (s *Solver) updateScan(rh, rl []float64, ch, cl float64) {
	n := len(s.f)
	s.setExtremes(la.UpdateScan(s.f, rh, rl, s.outHigh, s.outLow, ch, cl))
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
