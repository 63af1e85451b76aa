package smo

import (
	"math/rand"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

// SMO theory: every successful pair update strictly increases the dual
// objective F(α). Violations indicate a broken update rule.
func TestDualObjectiveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x, y := twoBlobs(rng, 40, 1.2, 1.0)
	s, err := New(x, y, defaultCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Objective()
	for i := 0; i < 200; i++ {
		if s.Step() {
			break
		}
		cur := s.Objective()
		if cur < prev-1e-9 {
			t.Fatalf("iteration %d: objective fell %v -> %v", s.iters, prev, cur)
		}
		prev = cur
	}
	if s.iters < 10 {
		t.Fatalf("too few iterations (%d) to be meaningful", s.iters)
	}
}

// The same invariant must hold under class-weighted box bounds.
func TestDualObjectiveMonotoneVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	x, y := twoBlobs(rng, 35, 1.0, 1.0)
	cfg := defaultCfg()
	cfg.PosWeight = 3
	s, err := New(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Objective()
	for i := 0; i < 150; i++ {
		if s.Step() {
			break
		}
		cur := s.Objective()
		if cur < prev-1e-9 {
			t.Fatalf("cfg %+v: objective fell %v -> %v at iter %d", cfg, prev, cur, s.iters)
		}
		prev = cur
	}
}

// Zero multipliers give objective zero; a solved problem gives a positive
// objective.
func TestDualObjectiveValues(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	x, y := twoBlobs(rng, 30, 2, 0.5)
	cfg := defaultCfg()
	s, err := New(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Objective(); got != 0 {
		t.Fatalf("initial objective %v", got)
	}
	res, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := DualObjective(x, y, res.Alpha, cfg.Kernel); got <= 0 {
		t.Fatalf("solved objective %v should be positive", got)
	}
}

// DualObjective evaluates eqn (1) of the paper,
//
//	F(α) = Σᵢ αᵢ − ½ ΣᵢΣⱼ αᵢαⱼyᵢyⱼK(i,j),
//
// the quantity SMO maximises. It costs O(s²) kernel evaluations over the
// support vectors, so it is a diagnostic, not a per-iteration tool. SMO
// theory guarantees F strictly increases on every successful pair update —
// the test suite uses that as a correctness invariant.
func DualObjective(x *la.Matrix, y, alpha []float64, k kernel.Params) float64 {
	sv := make([]int, 0)
	for i, a := range alpha {
		if a != 0 {
			sv = append(sv, i)
		}
	}
	var sum, quad float64
	for _, i := range sv {
		sum += alpha[i]
		for _, j := range sv {
			quad += alpha[i] * alpha[j] * y[i] * y[j] * k.Eval(x, i, x, j)
		}
	}
	return sum - quad/2
}

// Objective evaluates the solver's current dual objective.
func (s *Solver) Objective() float64 {
	return DualObjective(s.x, s.y, s.alpha, s.cfg.Kernel)
}
