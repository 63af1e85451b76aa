package smo

// The fused SMO hot path. The seed solver made three O(m) passes per
// iteration over f and the pair's two kernel columns: the f-update's two
// axpy sweeps and the next iteration's LocalExtremes scan. updateScan
// merges them into one pass, la.UpdateScan (four AVX2 lanes wide where the
// CPU has them): each element of f is loaded once, updated with both
// columns and tested for the next working-set extremes. It is the tail of
// every round of the loop (loop.go), whichever exchange supplied the columns.
//
// Two invariants are load-bearing:
//
//   - Bit-identity. The per-element update is computed as two dependent
//     additions (f + ch·rh, then + cl·rl), exactly the arithmetic of the
//     seed's two separate axpy passes, in the lanes and in the portable
//     loop alike. The lanes keep only each lane's extreme value and the
//     block (at most 16 elements) in which it first appeared; la.UpdateScan
//     then rescans the winning block in index order for the first element
//     equal to the extreme, which reproduces the scalar scan's lowest-index
//     tie-breaking. Results are therefore identical with the lanes or
//     without.
//
//   - Flop accounting. The fused pass charges only the update's 4·m; the
//     scan's 2·m is charged when the cached extremes are consumed by
//     LocalExtremes. Total flops per solve — and hence virtual time —
//     are exactly the seed's, fused or not.

import "casvm/internal/la"

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
