package model

import (
	"slices"
	"sync"

	"casvm/internal/la"
)

// Batched prediction through the kernel tile engine. Classifying a query
// block against the support vectors is a K(Q_blk, SV_blk) tile (one GEMM
// block plus the kernel finish) followed by a mat-vec with the αy
// coefficients — so the SV matrix is streamed once per query block instead
// of once per query, and the inner products run through the register-
// blocked microkernels (la.MulTile).
//
// Every result is bit-identical to the scalar per-row oracle (one Eval per
// support vector, oracle_test.go): each kernel element matches Params.Eval
// exactly (kernel.CrossTile's contract), coefficients multiply in the same
// (α·y)·K order, and each query's sum
// accumulates over support vectors in ascending index order across blocks.

const (
	// svBlock rows of the SV matrix per tile: bounds tile storage at
	// svBlock·qBlock floats while keeping the panel deep enough to amortise
	// the query block's residency. A call with fewer support vectors or
	// queries than a block sizes its scratch to what it was handed.
	svBlock = 256
	// qBlock query rows per tile: the panel of query rows kept hot across
	// one full sweep of the support vectors.
	qBlock = 64
)

// evalScratch is the working storage of one batched call (Set.evalAll or
// Model.DecisionAll), drawn from scratches for the length of the call: each
// slice grows to the largest call it served and is then reused, so a warm
// call allocates what it returns and a constant number of small objects.
type evalScratch struct {
	route, order, bound []int     // eval: each query's model, the grouped order, group ends
	gather, norms, vals []float64 // eval: the regrouped dense queries, their norms, their decisions
	coef, tile          []float64 // decisionInto: one model's αy, one K tile
	svRows              []int     // decisionInto: one SV block's indices
}

var scratches = sync.Pool{New: func() any { return new(evalScratch) }}

// grow returns s resliced to length n, reallocated only when too small. The
// contents are whatever the last user left.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// DecisionAll evaluates the decision value Σᵢ αᵢyᵢK(q_row, svᵢ) − B for
// every row of q, bit-identical to the per-row oracle.
func (m *Model) DecisionAll(q *la.Matrix) []float64 {
	out := make([]float64, q.Rows())
	sc := scratches.Get().(*evalScratch)
	m.decisionInto(q, sc, out)
	scratches.Put(sc)
	return out
}

// decisionInto is DecisionAll into out (one value per row of q), with its
// coefficients, SV indices and tile in sc.
func (m *Model) decisionInto(q *la.Matrix, sc *evalScratch, out []float64) {
	nq := q.Rows()
	nsv := m.NSV()
	if nsv == 0 {
		for i := range out {
			out[i] = -m.B
		}
		return
	}
	clear(out)
	sc.coef = grow(sc.coef, nsv)
	coef := sc.coef
	for i := range coef {
		// The oracle's term is (Alpha[i]*SVY[i])*K — left-associative, so the
		// coefficient product folds out of the loop without changing a bit.
		coef[i] = m.Alpha[i] * m.SVY[i]
	}
	th, tw := min(svBlock, nsv), min(qBlock, nq)
	sc.svRows, sc.tile = grow(sc.svRows, th), grow(sc.tile, th*tw)
	dst := sc.tile
	for qlo := 0; qlo < nq; qlo += qBlock {
		qhi := min(qlo+qBlock, nq)
		w := qhi - qlo
		for slo := 0; slo < nsv; slo += svBlock {
			shi := min(slo+svBlock, nsv)
			rows := sc.svRows[:shi-slo]
			for r := range rows {
				rows[r] = slo + r
			}
			// The SV matrix is the a side and the query the b side, exactly
			// like the oracle's Eval(SVX, i, q, qi).
			m.Kernel.CrossTile(m.SVX, rows, q, qlo, qhi, dst[:len(rows)*w], w)
			for r, i := 0, slo; i < shi; r, i = r+1, i+1 {
				c := coef[i]
				krow := dst[r*w : r*w+w]
				for k, kv := range krow {
					out[qlo+k] += c * kv
				}
			}
		}
	}
	for i := range out {
		out[i] -= m.B
	}
}

// label is the sign rule on a decision value: Fallback breaks the
// exact-zero tie.
func (m *Model) label(d float64) float64 {
	switch {
	case d > 0:
		return 1
	case d < 0:
		return -1
	}
	return m.Fallback
}

// PredictAll labels every row of q from one batched DecisionAll pass,
// bit-identical to the per-row oracle.
func (m *Model) PredictAll(q *la.Matrix) []float64 {
	if m.NSV() == 0 {
		out := make([]float64, q.Rows())
		for i := range out {
			out[i] = m.Fallback
		}
		return out
	}
	out := m.DecisionAll(q)
	for i, d := range out {
		out[i] = m.label(d)
	}
	return out
}

// RouteAll returns the nearest-center index for every row of q: Route's
// distances and argmin, taken from one la.SqDistTile block per la.SqDistEach
// block of queries, so the centroid matrix is streamed once per block instead
// of once per query.
func (s *Set) RouteAll(q *la.Matrix) []int {
	out := make([]int, q.Rows())
	s.routeInto(q, out)
	return out
}

// routeInto is RouteAll into dst, one index per row of q.
func (s *Set) routeInto(q *la.Matrix, dst []int) {
	la.SqDistEach(q, s.Centers, func(i int, d []float64) { dst[i] = la.ArgMin(d) })
}

// evalAll is the one routed pass behind every Set batch entry point, in
// scratch drawn for the call.
func (s *Set) evalAll(q *la.Matrix, labels, decs []float64) {
	sc := scratches.Get().(*evalScratch)
	s.eval(q, sc, labels, decs)
	scratches.Put(sc)
}

// eval routes every query to its model, counting-sorts the query indices by
// model (stably, so each group keeps ascending query order), and has each
// model evaluate its group through the tiled decisionInto as one contiguous
// row range; the group's values scatter into whichever of labels and decs is
// non-nil. When the grouped order is the identity (P = 1, or every query
// routed to one model) the ranges are views of q itself; otherwise a dense q
// is gathered once, in that order, into sc, norms and all, and a sparse q is
// copied once by Subset. Either way each model sees exactly the rows and
// norms of its group, so every value is bit-identical to the per-row oracles,
// including the tiny fallback-signed decision an SV-less model yields.
func (s *Set) eval(q *la.Matrix, sc *evalScratch, labels, decs []float64) {
	nq, p := q.Rows(), s.P()
	sc.route, sc.order, sc.bound = grow(sc.route, nq), grow(sc.order, nq), grow(sc.bound, p+1)
	route, order, bound := sc.route, sc.order, sc.bound
	s.routeInto(q, route)
	clear(bound)
	for _, r := range route {
		bound[r+1]++
	}
	for r := 1; r <= p; r++ {
		bound[r] += bound[r-1] // bound[r]: where group r starts
	}
	for qi, r := range route {
		order[bound[r]] = qi
		bound[r]++ // after the loop, bound[r]: where group r ends
	}
	src := q
	switch {
	case slices.IsSorted(route): // the grouped order is the identity
	case q.Sparse():
		src = q.Subset(order)
	default:
		sc.gather, sc.norms = grow(sc.gather, nq*q.Features()), grow(sc.norms, nq)
		src = q.SubsetInto(order, sc.gather, sc.norms)
	}
	sc.vals = grow(sc.vals, nq)
	for r, lo := 0, 0; r < p; r++ {
		hi := bound[r]
		group, vals := order[lo:hi], sc.vals[lo:hi]
		m := s.Models[r]
		switch {
		case lo == hi:
		case m.NSV() == 0:
			for _, qi := range group {
				if labels != nil {
					labels[qi] = m.Fallback
				}
				if decs != nil {
					decs[qi] = m.Fallback * 1e-9
				}
			}
		default:
			m.decisionInto(src.RowRange(lo, hi), sc, vals)
			for k, qi := range group {
				if labels != nil {
					labels[qi] = m.label(vals[k])
				}
				if decs != nil {
					decs[qi] = vals[k]
				}
			}
		}
		lo = hi
	}
}

// PredictAll labels every row of q, bit-identical to the per-row oracle.
func (s *Set) PredictAll(q *la.Matrix) []float64 {
	out := make([]float64, q.Rows())
	s.evalAll(q, out, nil)
	return out
}

// DecisionAll evaluates the routed decision value for every row of q,
// bit-identical to the per-row oracle.
func (s *Set) DecisionAll(q *la.Matrix) []float64 {
	out := make([]float64, q.Rows())
	s.evalAll(q, nil, out)
	return out
}

// EvalAll returns PredictAll's labels and DecisionAll's values from a single
// routed pass: a caller that wants both pays for one tile sweep, not two.
func (s *Set) EvalAll(q *la.Matrix) (labels, decisions []float64) {
	labels = make([]float64, q.Rows())
	decisions = make([]float64, q.Rows())
	s.evalAll(q, labels, decisions)
	return labels, decisions
}
