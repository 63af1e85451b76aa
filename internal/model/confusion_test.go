package model

import (
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

func TestConfusionCounts(t *testing.T) {
	// A fixed "model": single SV at origin with fallback +1 has NSV>0, so
	// build a simple threshold model on 1-D data instead.
	x := la.NewDense(2, 1, []float64{1, -1})
	mdl := FromSolution(x, []float64{1, -1}, []float64{0.5, 0.5}, 0, kernel.RBF(0.5))
	set := Single(mdl, []float64{0})

	q := la.NewDense(4, 1, []float64{2, 1.5, -2, -1.5})
	y := []float64{1, -1, -1, 1}
	c := set.Confusion(q, y)
	if c.TP != 1 || c.FP != 1 || c.TN != 1 || c.FN != 1 {
		t.Fatalf("confusion %+v", c)
	}
	if c.Recall() != 0.5 {
		t.Fatalf("recall=%v", c.Recall())
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var c Confusion
	if c.Recall() != 0 {
		t.Fatal("empty confusion recall must be zero")
	}
}
