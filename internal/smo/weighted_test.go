package smo

import (
	"math"
	"math/rand"
	"testing"

	"casvm/internal/la"
)

// buildBlobs makes an imbalanced 2-D problem: mPos positives at (+1,+1)
// overlap mNeg negatives at (−1,−1); the overlap makes the unweighted SVM
// sacrifice positive recall.
func buildBlobs(rng *rand.Rand, mPos, mNeg int) (*la.Matrix, []float64) {
	m := mPos + mNeg
	dataBuf := make([]float64, 0, 2*m)
	y := make([]float64, 0, m)
	for i := 0; i < mPos; i++ {
		dataBuf = append(dataBuf, 1+1.2*rng.NormFloat64(), 1+1.2*rng.NormFloat64())
		y = append(y, 1)
	}
	for i := 0; i < mNeg; i++ {
		dataBuf = append(dataBuf, -1+1.2*rng.NormFloat64(), -1+1.2*rng.NormFloat64())
		y = append(y, -1)
	}
	return la.NewDense(m, 2, dataBuf), y
}

// With equal bounds the weighted update is the plain one of eqns (6)–(7):
// η = 1, α_low moves by y_low·(f_high − f_low)/η = 1 inside its box
// [0.2, 1.5], and α_high follows by −y_low·y_high·Δα_low = 1.
func TestPairSolveWeightedReducesToPlain(t *testing.T) {
	dah, dal := PairSolveWeighted(1.5, 1.5, 1, -1, -0.3, 0.7, 0.2, 0.4, 1, 1, 0.5)
	if math.Abs(dah-1) > 1e-12 || math.Abs(dal-1) > 1e-12 {
		t.Fatalf("equal bounds must give the plain update (1, 1), got (%v, %v)", dah, dal)
	}
}

func TestPairSolveWeightedRespectsBounds(t *testing.T) {
	// Positive high sample with large bound, negative low sample with
	// small bound: the low side must clip at its own cl.
	cases := []struct {
		ch, cl float64
		yh, yl float64
		ah, al float64
	}{
		{10, 1, 1, -1, 0.5, 0.9},
		{1, 10, 1, 1, 0.2, 0.3},
		{2, 0.5, -1, 1, 1.5, 0.1},
	}
	for _, c := range cases {
		dah, dal := PairSolveWeighted(c.ch, c.cl, c.yh, c.yl, -5, 5, c.ah, c.al, 1, 1, 0)
		ah, al := c.ah+dah, c.al+dal
		if al < -1e-12 || al > c.cl+1e-12 {
			t.Errorf("al=%v outside [0,%v]", al, c.cl)
		}
		if ah < -1e-12 || ah > c.ch+1e-12 {
			t.Errorf("ah=%v outside [0,%v]", ah, c.ch)
		}
	}
}

func TestPosWeightImprovesRecall(t *testing.T) {
	x, y := buildBlobs(rand.New(rand.NewSource(51)), 25, 400)

	recallOf := func(posWeight float64) float64 {
		cfg := defaultCfg()
		cfg.PosWeight = posWeight
		res, err := Solve(x, y, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		tp, fn := 0, 0
		for i := 0; i < x.Rows(); i++ {
			if y[i] < 0 {
				continue
			}
			if decision(x, y, res.Alpha, res.B, cfg.Kernel, x, i) > 0 {
				tp++
			} else {
				fn++
			}
		}
		if tp+fn == 0 {
			return 0
		}
		return float64(tp) / float64(tp+fn)
	}
	plain := recallOf(0)
	weighted := recallOf(8)
	if weighted < plain {
		t.Errorf("PosWeight=8 recall %.3f should be ≥ unweighted %.3f", weighted, plain)
	}
	if weighted < 0.8 {
		t.Errorf("weighted recall %.3f too low", weighted)
	}
}

func TestPosWeightKKT(t *testing.T) {
	x, y := buildBlobs(rand.New(rand.NewSource(52)), 30, 200)
	cfg := defaultCfg()
	cfg.PosWeight = 4
	res, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sumAY float64
	for i, a := range res.Alpha {
		bound := cfg.C
		if y[i] > 0 {
			bound = cfg.C * cfg.PosWeight
		}
		if a < -1e-12 || a > bound+1e-12 {
			t.Fatalf("alpha[%d]=%v outside [0,%v]", i, a, bound)
		}
		sumAY += a * y[i]
	}
	if math.Abs(sumAY) > 1e-9*(1+float64(len(y))) {
		t.Fatalf("Σαy=%v", sumAY)
	}
	// Some positive multiplier should exceed the unweighted bound,
	// proving the wider box is actually used.
	exceeded := false
	for i, a := range res.Alpha {
		if y[i] > 0 && a > cfg.C+1e-9 {
			exceeded = true
			_ = i
		}
	}
	if !exceeded {
		t.Log("no positive multiplier above C (possible but unusual on this data)")
	}
}
