package model

import "casvm/internal/la"

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

// DecisionAll evaluates the decision value Σᵢ αᵢyᵢK(q_row, svᵢ) − B for
// every row of q, bit-identical to the per-row oracle.
func (m *Model) DecisionAll(q *la.Matrix) []float64 {
	nq := q.Rows()
	out := make([]float64, nq)
	nsv := m.NSV()
	if nsv == 0 {
		for i := range out {
			out[i] = -m.B
		}
		return out
	}
	coef := make([]float64, nsv)
	for i := range coef {
		// The oracle's term is (Alpha[i]*SVY[i])*K — left-associative, so the
		// coefficient product folds out of the loop without changing a bit.
		coef[i] = m.Alpha[i] * m.SVY[i]
	}
	th, tw := min(svBlock, nsv), min(qBlock, nq)
	rows := make([]int, 0, th)
	dst := make([]float64, th*tw)
	for qlo := 0; qlo < nq; qlo += qBlock {
		qhi := min(qlo+qBlock, nq)
		w := qhi - qlo
		for slo := 0; slo < nsv; slo += svBlock {
			shi := min(slo+svBlock, nsv)
			rows = rows[:0]
			for i := slo; i < shi; i++ {
				rows = append(rows, i)
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
	return out
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
	la.SqDistEach(q, s.Centers, func(i int, d []float64) { out[i] = la.ArgMin(d) })
	return out
}

// evalAll is the one routed pass behind every Set batch entry point: a
// RouteAll pass assigns each query its model, then each model evaluates its
// whole group through the tiled Model.DecisionAll once, and the group's
// values scatter into whichever of labels and decs is non-nil. Bit-identical
// to the per-row oracles (Subset copies rows verbatim, so the
// kernel sees the same operands), including the tiny fallback-signed
// decision an SV-less model yields.
func (s *Set) evalAll(q *la.Matrix, labels, decs []float64) {
	byModel := make([][]int, s.P())
	for qi, r := range s.RouteAll(q) {
		byModel[r] = append(byModel[r], qi)
	}
	for r, group := range byModel {
		if len(group) == 0 {
			continue
		}
		m := s.Models[r]
		if m.NSV() == 0 {
			for _, qi := range group {
				if labels != nil {
					labels[qi] = m.Fallback
				}
				if decs != nil {
					decs[qi] = m.Fallback * 1e-9
				}
			}
			continue
		}
		d := m.DecisionAll(q.Subset(group))
		for k, qi := range group {
			if labels != nil {
				labels[qi] = m.label(d[k])
			}
			if decs != nil {
				decs[qi] = d[k]
			}
		}
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
