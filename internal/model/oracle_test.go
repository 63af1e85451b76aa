package model

import "casvm/internal/la"

// The scalar prediction oracles: one query row at a time, one kernel Eval
// per support vector, in the order the batch path must reproduce bit for
// bit. They share no loop with batch.go.

// decision evaluates Σᵢ αᵢyᵢK(q_row, svᵢ) − B for row qi of q.
func decision(m *Model, q *la.Matrix, qi int) float64 {
	var s float64
	for i := 0; i < m.NSV(); i++ {
		s += m.Alpha[i] * m.SVY[i] * m.Kernel.Eval(m.SVX, i, q, qi)
	}
	return s - m.B
}

// predict returns the ±1 label for row qi of q.
func predict(m *Model, q *la.Matrix, qi int) float64 {
	if m.NSV() == 0 {
		return m.Fallback
	}
	d := decision(m, q, qi)
	if d > 0 {
		return 1
	}
	if d < 0 {
		return -1
	}
	return m.Fallback
}

// route returns the index of the center nearest to row qi of q, the lowest
// index on a tie.
func route(s *Set, q *la.Matrix, qi int) int {
	np := s.Centers.Rows()
	d := make([]float64, np)
	la.SqDistTile(q, []int{qi}, s.Centers, 0, np, d, np)
	return la.ArgMin(d)
}

// setPredict routes row qi to its nearest center's model and classifies.
func setPredict(s *Set, q *la.Matrix, qi int) float64 {
	return predict(s.Models[route(s, q, qi)], q, qi)
}

// setDecision routes row qi to its nearest center's model and returns its
// decision value; a model with no support vectors yields a tiny value with
// the sign of its fallback label.
func setDecision(s *Set, q *la.Matrix, qi int) float64 {
	m := s.Models[route(s, q, qi)]
	if m.NSV() == 0 {
		return m.Fallback * 1e-9
	}
	return decision(m, q, qi)
}
