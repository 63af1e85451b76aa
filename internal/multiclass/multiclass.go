// Package multiclass extends the binary CA-SVM trainers to K-class
// problems the way the paper prescribes (§II-A): "Multi-class SVMs may be
// implemented as several independent binary-class SVMs; a multi-class SVM
// can be easily processed in parallel once its constituent binary-class
// SVMs are available."
//
// Two reductions are provided: one-vs-rest (K binary machines, argmax of
// the decision values) and one-vs-one (K(K−1)/2 machines, majority vote).
// Each constituent binary problem trains with any of the eight distributed
// methods in internal/core.
package multiclass

import (
	"fmt"
	"sort"

	"casvm/internal/core"
	"casvm/internal/la"
	"casvm/internal/model"
)

// Scheme selects the binary reduction.
type Scheme int

const (
	// OneVsRest trains one machine per class against everything else and
	// predicts the class with the largest decision value.
	OneVsRest Scheme = iota
	// OneVsOne trains one machine per unordered class pair and predicts
	// by majority vote (ties resolve to the smaller class label).
	OneVsOne
)

// Model is a trained multiclass classifier.
type Model struct {
	Scheme  Scheme
	Classes []float64 // sorted distinct class labels

	// OneVsRest: Sets[i] separates Classes[i] (+1) from the rest (−1).
	// OneVsOne: Sets[k] separates PairA[k] (+1) from PairB[k] (−1).
	Sets  []*model.Set
	PairA []int // class indices, one-vs-one only
	PairB []int
}

// classesOf returns the sorted distinct labels of y.
func classesOf(y []float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, v := range y {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// Train fits a multiclass model on (x, y) where y holds arbitrary class
// labels (at least two distinct values). Every constituent binary machine
// uses params (method, P, kernel, …); params.Seed is varied per machine so
// partitioners do not correlate.
func Train(x *la.Matrix, y []float64, params core.Params, scheme Scheme) (*Model, error) {
	if x == nil || x.Rows() != len(y) {
		return nil, fmt.Errorf("multiclass: samples and labels disagree")
	}
	classes := classesOf(y)
	if len(classes) < 2 {
		return nil, fmt.Errorf("multiclass: need ≥2 classes, got %d", len(classes))
	}
	m := &Model{Scheme: scheme, Classes: classes}
	switch scheme {
	case OneVsRest:
		for ci, c := range classes {
			bin := make([]float64, len(y))
			for i, v := range y {
				if v == c {
					bin[i] = 1
				} else {
					bin[i] = -1
				}
			}
			p := params
			p.Seed = params.Seed + int64(ci)*7919
			out, err := core.Train(x, bin, p)
			if err != nil {
				return nil, fmt.Errorf("multiclass: class %v: %w", c, err)
			}
			m.Sets = append(m.Sets, out.Set)
		}
	case OneVsOne:
		for ai := 0; ai < len(classes); ai++ {
			for bi := ai + 1; bi < len(classes); bi++ {
				rows := []int{}
				for i, v := range y {
					if v == classes[ai] || v == classes[bi] {
						rows = append(rows, i)
					}
				}
				sub := x.Subset(rows)
				bin := make([]float64, len(rows))
				for k, i := range rows {
					if y[i] == classes[ai] {
						bin[k] = 1
					} else {
						bin[k] = -1
					}
				}
				p := params
				p.Seed = params.Seed + int64(len(m.Sets))*7919
				if p.P > len(rows) {
					p.P = len(rows)
				}
				out, err := core.Train(sub, bin, p)
				if err != nil {
					return nil, fmt.Errorf("multiclass: pair (%v,%v): %w", classes[ai], classes[bi], err)
				}
				m.Sets = append(m.Sets, out.Set)
				m.PairA = append(m.PairA, ai)
				m.PairB = append(m.PairB, bi)
			}
		}
	default:
		return nil, fmt.Errorf("multiclass: unknown scheme %d", scheme)
	}
	return m, nil
}

// Predict returns the class label for row qi of q.
func (m *Model) Predict(q *la.Matrix, qi int) float64 {
	switch m.Scheme {
	case OneVsRest:
		best, bi := m.Sets[0].Decision(q, qi), 0
		for i := 1; i < len(m.Sets); i++ {
			if d := m.Sets[i].Decision(q, qi); d > best {
				best, bi = d, i
			}
		}
		return m.Classes[bi]
	default: // OneVsOne
		votes := make([]int, len(m.Classes))
		for k, set := range m.Sets {
			if set.Predict(q, qi) > 0 {
				votes[m.PairA[k]]++
			} else {
				votes[m.PairB[k]]++
			}
		}
		bi := 0
		for i, v := range votes {
			if v > votes[bi] {
				bi = i
			}
		}
		return m.Classes[bi]
	}
}

// Accuracy is the fraction of rows of q whose prediction matches y.
func (m *Model) Accuracy(q *la.Matrix, y []float64) float64 {
	if q.Rows() == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < q.Rows(); i++ {
		if m.Predict(q, i) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(q.Rows())
}

// Machines returns the number of constituent binary machines.
func (m *Model) Machines() int { return len(m.Sets) }
