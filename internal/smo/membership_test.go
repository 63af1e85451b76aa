package smo

import (
	"math"
	"math/rand"
	"testing"

	"casvm/internal/kernel"
)

// requireMembershipDerived holds the kept working-set membership to the one
// Keerthi's definition derives from (y, α, C): I_high is {y>0, α<C₊} ∪
// {y<0, α>0}, I_low is {y>0, α>0} ∪ {y<0, α<C₋}. It returns how many
// multipliers sit at 0, strictly inside the box, and at their bound.
func requireMembershipDerived(t *testing.T, when string, s *Solver) (atZero, interior, atBound int) {
	t.Helper()
	cPos, cNeg := s.cfg.C*s.cfg.posWeight(), s.cfg.C
	for i, a := range s.alpha {
		high, low := a < cPos, a > 0
		bound := cPos
		if s.y[i] < 0 {
			high, low = a > 0, a < cNeg
			bound = cNeg
		}
		if got := s.outHigh[i] == 0; got != high || (!got && !math.IsInf(s.outHigh[i], 1)) {
			t.Fatalf("%s: sample %d (y=%v α=%v): outHigh=%v, derived I_high membership %v", when, i, s.y[i], a, s.outHigh[i], high)
		}
		if got := s.outLow[i] == 0; got != low || (!got && !math.IsInf(s.outLow[i], 1)) {
			t.Fatalf("%s: sample %d (y=%v α=%v): outLow=%v, derived I_low membership %v", when, i, s.y[i], a, s.outLow[i], low)
		}
		switch a {
		case 0:
			atZero++
		case bound:
			atBound++
		default:
			interior++
		}
	}
	return
}

// TestMembershipMatchesDerived checks the membership arrays everywhere alpha
// is written — construction, every Step, AddAlpha (the distributed update),
// warm start with out-of-box multipliers, and restore — on an overlapping
// imbalanced problem with PosWeight ≠ 1, so the two classes have different
// bounds and the solve visits multipliers at 0, inside the box and at both
// bounds.
func TestMembershipMatchesDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x, y := buildBlobs(rng, 30, 90)
	cfg := Config{C: 0.7, Tol: 1e-3, Kernel: kernel.RBF(0.5), PosWeight: 2.5}
	s, err := New(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireMembershipDerived(t, "new", s)
	var mid *Checkpoint
	for !s.Step() {
		requireMembershipDerived(t, "step", s)
		if s.iters == 40 {
			mid = s.Snapshot()
		}
	}
	zero, interior, bound := requireMembershipDerived(t, "converged", s)
	if zero == 0 || interior == 0 || bound == 0 || mid == nil {
		t.Fatalf("fixture too easy: %d at zero, %d interior, %d at bound after %d iterations", zero, interior, bound, s.iters)
	}
	converged := append([]float64(nil), s.alpha...)

	// AddAlpha: push multipliers across both edges and back inside.
	for step := 0; step < 500; step++ {
		i := rng.Intn(len(y))
		s.AddAlpha(i, []float64{-5, -0.05, 0.05, 5}[rng.Intn(4)])
		requireMembershipDerived(t, "AddAlpha", s)
	}

	// Warm start: inherited multipliers, some outside the box (clipped).
	warm := append([]float64(nil), converged...)
	warm[0], warm[1], warm[2], warm[3] = -0.2, 9, 9, -0.2
	w, err := New(x, y, cfg, warm)
	if err != nil {
		t.Fatal(err)
	}
	requireMembershipDerived(t, "warm start", w)
	for !w.Step() {
		requireMembershipDerived(t, "warm step", w)
	}

	// Restore: the snapshot's multipliers replace the initial zeros.
	rcfg := cfg
	rcfg.Restore = mid
	r, err := New(x, y, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireMembershipDerived(t, "restore", r)
	for !r.Step() {
		requireMembershipDerived(t, "restored step", r)
	}
	for i := range converged {
		if r.alpha[i] != converged[i] {
			t.Fatalf("restored solve: alpha[%d] %v, uninterrupted %v", i, r.alpha[i], converged[i])
		}
	}
}
