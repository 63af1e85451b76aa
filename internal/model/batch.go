package model

import (
	"sync"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

// Batched prediction. A dense Gaussian model decides through query panels
// (la.ExpDistSum): four queries at a time, taken by index into the query
// matrix with its norm cache, stream the support vectors in ascending order,
// and each lane finishes exp(−γ·d) and adds αy·K to its query's running
// decision in registers, so no kernel tile is written. The support vectors
// go in blocks of about svPanelBytes, which stay in L2 across every quad of
// queries. Sparse and non-Gaussian models classify a query block through a
// K(SV_blk, Q_blk) tile (kernel.CrossTile) followed by a mat-vec with the αy
// coefficients, so the SV matrix is streamed once per query block instead of
// once per query.
//
// Every result is bit-identical to the scalar per-row oracle (one Eval per
// support vector, oracle_test.go): each kernel value matches Params.Eval
// exactly (la.ExpDistSum's and kernel.CrossTile's contracts), coefficients
// multiply in the same (α·y)·K order, and each query's sum accumulates over
// support vectors in ascending index order across blocks, one addition a
// term, starting from zero as the oracle's does.

const (
	// svBlock rows of the SV matrix per tile: bounds tile storage at
	// svBlock·qBlock floats while keeping the panel deep enough to amortise
	// the query block's residency. A call with fewer support vectors or
	// queries than a block sizes its scratch to what it was handed.
	svBlock = 256
	// qBlock query rows per tile: the panel of query rows kept hot across
	// one full sweep of the support vectors.
	qBlock = 64
	// svPanelBytes is the size of the SV block each query panel streams:
	// small enough to stay in L2 while every quad of a group sweeps it.
	svPanelBytes = 128 << 10
)

// evalScratch is the working storage of one batched call (Set.evalAll or
// Model.DecisionAll), drawn from scratches for the length of the call: each
// slice grows to the largest call it served and is then reused, so a warm
// call allocates what it returns and a constant number of small objects.
type evalScratch struct {
	route, order, bound []int     // eval: each query's model, the grouped order, group ends
	vals, coef          []float64 // eval: the grouped decisions; decisionInto: one model's αy
	tile                []float64 // decisionInto's tile path: one K tile
	svRows              []int     // decisionInto's tile path: one SV block's indices
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
	m.decisionInto(q, nil, sc, out)
	scratches.Put(sc)
	return out
}

// panels reports whether m decides q's rows through query panels: a dense
// Gaussian model over dense queries.
func (m *Model) panels(q *la.Matrix) bool {
	return m.Kernel.Kind == kernel.Gaussian && !m.SVX.Sparse() && !q.Sparse()
}

// decisionInto sets out[k] to the decision value of row rows[k] of q (row k
// when rows is nil), rows ascending, with its coefficients and any tile in
// sc. The tile path evaluates a contiguous run of rows as a view of q and
// copies any other list once (la.Matrix.Subset).
func (m *Model) decisionInto(q *la.Matrix, rows []int, sc *evalScratch, out []float64) {
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
	if m.panels(q) {
		blk := max(1, svPanelBytes/(8*max(1, m.SVX.Features())))
		for slo := 0; slo < nsv; slo += blk {
			shi := min(slo+blk, nsv)
			la.ExpDistSum(q, rows, m.SVX, slo, shi, coef[slo:shi], -m.Kernel.Gamma, out)
		}
	} else {
		if n := len(rows); n > 0 {
			if rows[n-1]-rows[0] == n-1 {
				q = q.RowRange(rows[0], rows[0]+n)
			} else {
				q = q.Subset(rows)
			}
		}
		m.tileInto(q, sc, out)
	}
	for i := range out {
		out[i] -= m.B
	}
}

// tileInto adds Σᵢ αᵢyᵢK(q_row, svᵢ) to out for every row of q through
// CrossTile tiles, the coefficients in sc.coef.
func (m *Model) tileInto(q *la.Matrix, sc *evalScratch, out []float64) {
	nq, nsv := q.Rows(), m.NSV()
	th, tw := min(svBlock, nsv), min(qBlock, nq)
	sc.svRows, sc.tile = grow(sc.svRows, th), grow(sc.tile, th*tw)
	coef, dst := sc.coef, sc.tile
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
// model evaluate its group by index into q (decisionInto); the group's values
// scatter into whichever of labels and decs is non-nil. Each model sees
// exactly the rows and norms of its group, so every value is bit-identical
// to the per-row oracles, including the tiny fallback-signed decision an
// SV-less model yields.
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
			m.decisionInto(q, group, sc, vals)
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
