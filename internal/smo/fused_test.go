package smo

import (
	"math"
	"math/rand"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/trace"
)

// refUpdateF is the seed's unfused f-update of eqn (5): f_i +=
// Δα_high·y_high·K(high,i) + Δα_low·y_low·K(low,i) as two axpy sweeps over
// the cached rows. It is the reference the fused pass is compared against.
func refUpdateF(s *Solver, iHigh, iLow int, dah, dal float64) {
	s.invalidateExtremes()
	sp := s.rec.Begin(trace.CatSolver, "update")
	defer s.rec.End(sp)
	rh := s.cache.Row(iHigh)
	la.Axpy(dah*s.y[iHigh], rh, s.f)
	rl := s.cache.Row(iLow)
	la.Axpy(dal*s.y[iLow], rl, s.f)
	s.flops += float64(4 * len(s.f))
}

// refStep replicates the seed's unfused iteration: a fresh LocalExtremes
// scan, the pair update written out as the seed wrote it, then the two-axpy
// refUpdateF. Because refUpdateF invalidates the cached extremes,
// LocalExtremes rescans every iteration — exactly the pre-fusion control
// flow and flop charges. The pair's rows are made resident the way Step
// does it: which entries a fill evaluates (and so charges) depends on what
// is resident when it runs, and the fill is not what these tests compare.
//
// The multipliers are written the seed's way, not through AddAlpha: low
// first as snapTo(α_low + Δα_low), then high as snapTo(min(C, max(0, α_high
// + Δα_high))). Step's AddAlpha clamps the low side into [0, C] as well;
// snapTo already sends everything below 1e-12·C to 0 and everything above
// C − 1e-12·C to C, so the two agree, and these tests hold them to it bit
// for bit.
func refStep(s *Solver) (done bool) {
	bHigh, iHigh, bLow, iLow := s.LocalExtremes()
	if iHigh < 0 || iLow < 0 || bLow-bHigh < 2*s.cfg.tol() {
		return true
	}
	s.cache.PrefetchPair(iHigh, iLow)
	c := s.cfg.C
	ah, al := s.alpha[iHigh], s.alpha[iLow]
	dah, dal := PairSolve(c, s.y[iHigh], s.y[iLow], s.f[iHigh], s.f[iLow], ah, al,
		s.cache.Diag(iHigh), s.cache.Diag(iLow), s.cache.Row(iHigh)[iLow])
	if dah == 0 && dal == 0 {
		return true
	}
	s.alpha[iLow] = s.snapTo(al+dal, c)
	s.alpha[iHigh] = s.snapTo(math.Min(c, math.Max(0, ah+dah)), c)
	s.setMember(iLow)
	s.setMember(iHigh)
	refUpdateF(s, iHigh, iLow, dah, dal)
	s.iters++
	return false
}

// refSolve drives refStep through the same loop as Solve.
func refSolve(t *testing.T, x *la.Matrix, y []float64, cfg Config) *Result {
	t.Helper()
	s, err := New(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 100*x.Rows() + 10000
	}
	converged := false
	for s.iters < maxIter {
		if refStep(s) {
			converged = true
			break
		}
	}
	b := s.Bias()
	return &Result{Alpha: s.alpha, B: b, Iters: s.iters, Flops: s.TakeFlops(), Converged: converged}
}

// requireIdentical asserts two results match bit for bit: multipliers,
// bias, iteration count, and the virtual-time flop total.
func requireIdentical(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.Iters != b.Iters {
		t.Fatalf("%s: iters %d vs %d", name, a.Iters, b.Iters)
	}
	if a.B != b.B {
		t.Fatalf("%s: bias %v vs %v", name, a.B, b.B)
	}
	if a.Flops != b.Flops {
		t.Fatalf("%s: flops %v vs %v", name, a.Flops, b.Flops)
	}
	if a.Converged != b.Converged {
		t.Fatalf("%s: converged %v vs %v", name, a.Converged, b.Converged)
	}
	for i := range a.Alpha {
		if a.Alpha[i] != b.Alpha[i] {
			t.Fatalf("%s: alpha[%d] %v vs %v", name, i, a.Alpha[i], b.Alpha[i])
		}
	}
}

func sparseCopy(de *la.Matrix) *la.Matrix {
	m, n := de.Rows(), de.Features()
	rp := make([]int32, m+1)
	var ix []int32
	var vx []float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if v := de.At(i, j); v != 0 {
				ix = append(ix, int32(j))
				vx = append(vx, v)
			}
		}
		rp[i+1] = int32(len(ix))
	}
	return la.NewSparse(m, n, rp, ix, vx)
}

// TestFusedMatchesUnfused proves the fused update/scan pass reproduces the
// seed's separate-pass solver exactly — values, iteration counts, and flop
// totals — across box sizes, cache sizes and both storage formats.
func TestFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	de, y := twoBlobs(rng, 150, 2, 0.9)
	sp := sparseCopy(de)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"first-order", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}},
		{"wide-box", Config{C: 2.5, Tol: 1e-3, Kernel: kernel.RBF(0.5)}},
		{"small-cache", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), CacheRows: 8}},
	}
	for _, tc := range cases {
		for _, mat := range []struct {
			name string
			x    *la.Matrix
		}{{"dense", de}, {"sparse", sp}} {
			want := refSolve(t, mat.x, y, tc.cfg)
			got, err := Solve(mat.x, y, tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, tc.name+"/"+mat.name, got, want)
		}
	}
}

// TestParallelMatchesReferenceLarge: the fused solve vs the unfused serial
// reference on an iteration-capped m = 4096 problem, the size BenchmarkSolve
// runs, where the lane-wide update/scan tail covers many full blocks.
func TestParallelMatchesReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x, y := twoBlobs(rng, 2048, 2, 0.8)
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), MaxIter: 80}
	want := refSolve(t, x, y, cfg)
	got, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "fused-vs-serial-ref", got, want)
}

func benchBlobs(m int) (*la.Matrix, []float64) {
	rng := rand.New(rand.NewSource(7))
	return twoBlobs(rng, m/2, 2, 1.2)
}

// BenchmarkSolve measures the full fused SMO hot path on an RBF problem at
// the acceptance size m=4096 (iteration-capped so op time stays bounded).
func BenchmarkSolve(b *testing.B) {
	x, y := benchBlobs(4096)
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), MaxIter: 60}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(x, y, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateScanFused compares one fused update+scan pass against the
// seed's separate refUpdateF + LocalExtremes passes over the same state: at
// α = 0, where set membership follows the label alone, and with half the
// multipliers at their bound and a quarter inside the box in a seeded random
// order — the state of a solve under way, where membership looks random along
// the sample axis.
func BenchmarkUpdateScanFused(b *testing.B) {
	x, y := benchBlobs(4096)
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}
	mk := func(b *testing.B) *Solver {
		s, err := New(x, y, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		s.cache.Row(0) // warm the two rows the passes touch
		s.cache.Row(1)
		return s
	}
	mixed := func(b *testing.B) *Solver {
		s := mk(b)
		rng := rand.New(rand.NewSource(8))
		for i := range y {
			s.AddAlpha(i, []float64{0, 0.5, 1, 1}[rng.Intn(4)])
		}
		return s
	}
	// Zero deltas keep f fixed across iterations while costing the same
	// arithmetic as a real update.
	b.Run("fused", func(b *testing.B) {
		s := mk(b)
		rh, rl := s.cache.Row(0), s.cache.Row(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.updateScan(rh, rl, 0, 0)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		s := mk(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refUpdateF(s, 0, 1, 0, 0)
			s.LocalExtremes()
		}
	})
	b.Run("fused-half-at-bound", func(b *testing.B) {
		s := mixed(b)
		rh, rl := s.cache.Row(0), s.cache.Row(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.updateScan(rh, rl, 0, 0)
		}
	})
}
