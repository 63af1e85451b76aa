// Package model holds trained SVM models: the support-vector form of a
// single binary classifier (eqn 3 plus bias), and the model Set produced by
// the partitioned methods (CP-SVM, CA-SVM) where each node contributes one
// model file and prediction routes each query to the model of its nearest
// data center (Fig 3).
package model

import (
	"fmt"
	"math"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

// Model is one trained binary SVM in support-vector form.
type Model struct {
	Kernel kernel.Params
	SVX    *la.Matrix // support vectors, one per row
	SVY    []float64  // their ±1 labels
	Alpha  []float64  // their (positive) Lagrange multipliers
	B      float64    // bias; decision is Σ αyK(x,sv) − B

	// Fallback is the label predicted when the model has no support
	// vectors (a single-class training partition) or a decision of
	// exactly zero. It is the majority training label.
	Fallback float64
}

// FromSolution extracts the support vectors (α > 0) from a full training
// solution over (x, y).
func FromSolution(x *la.Matrix, y, alpha []float64, b float64, k kernel.Params) *Model {
	idx := make([]int, 0)
	for i, a := range alpha {
		if a > 0 {
			idx = append(idx, i)
		}
	}
	m := &Model{
		Kernel: k,
		SVX:    x.Subset(idx),
		SVY:    make([]float64, len(idx)),
		Alpha:  make([]float64, len(idx)),
		B:      b,
	}
	for t, i := range idx {
		m.SVY[t] = y[i]
		m.Alpha[t] = alpha[i]
	}
	pos := 0
	for _, v := range y {
		if v > 0 {
			pos++
		}
	}
	if 2*pos >= len(y) {
		m.Fallback = 1
	} else {
		m.Fallback = -1
	}
	return m
}

// NSV returns the number of support vectors.
func (m *Model) NSV() int { return len(m.Alpha) }

// Set is the model collection of a partitioned method: Models[j] was
// trained on partition j whose center is row j of Centers. A query is
// classified by the model of its nearest center (§IV-A).
type Set struct {
	Models  []*Model
	Centers *la.Matrix

	// Meta carries free-form provenance annotations (compression budget,
	// measured accuracy delta, source hash). It serialises in the model
	// file's head as key/value strings sorted by key, and Hash covers it
	// too: annotating a set changes its fingerprint.
	Meta map[string]string
}

// SetMeta records one metadata annotation, allocating the map on first use.
func (s *Set) SetMeta(key, value string) {
	if s.Meta == nil {
		s.Meta = map[string]string{}
	}
	s.Meta[key] = value
}

// P returns the number of partitions/models.
func (s *Set) P() int { return len(s.Models) }

// Accuracy returns the routed-prediction accuracy on (q, y).
func (s *Set) Accuracy(q *la.Matrix, y []float64) float64 {
	if q.Rows() == 0 {
		return 0
	}
	correct := 0
	for i, p := range s.PredictAll(q) {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(q.Rows())
}

// NSV returns the total support vectors across the set.
func (s *Set) NSV() int {
	t := 0
	for _, m := range s.Models {
		t += m.NSV()
	}
	return t
}

// Single wraps one model as a degenerate Set (used so every training
// method returns the same artefact type).
func Single(m *Model, center []float64) *Set {
	var centers *la.Matrix
	if center != nil {
		centers = la.NewDense(1, len(center), append([]float64(nil), center...))
	} else {
		centers = la.Zeros(1, m.SVX.Features())
	}
	return &Set{Models: []*Model{m}, Centers: centers}
}

// Validate checks internal consistency.
func (m *Model) Validate() error {
	if m.SVX == nil {
		return fmt.Errorf("model: nil SVX")
	}
	if m.SVX.Rows() != len(m.SVY) || len(m.SVY) != len(m.Alpha) {
		return fmt.Errorf("model: %d SVs, %d labels, %d alphas", m.SVX.Rows(), len(m.SVY), len(m.Alpha))
	}
	for i, a := range m.Alpha {
		if a <= 0 || math.IsNaN(a) {
			return fmt.Errorf("model: alpha[%d]=%v", i, a)
		}
	}
	return m.Kernel.Validate()
}
