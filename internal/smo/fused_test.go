package smo

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/trace"
)

// refUpdateF is the seed's unfused f-update of eqn (5): f_i +=
// Δα_high·y_high·K(high,i) + Δα_low·y_low·K(low,i) as two axpy sweeps over
// the cached rows. It is the reference the fused pass is compared against.
func refUpdateF(s *Solver, iHigh, iLow int, u PairUpdate) {
	s.invalidateExtremes()
	sp := s.rec.Begin(trace.CatSolver, "update")
	defer s.rec.End(sp)
	rh := s.cache.Row(iHigh)
	la.Axpy(u.DAlphaHigh*s.y[iHigh], rh, s.f)
	rl := s.cache.Row(iLow)
	la.Axpy(u.DAlphaLow*s.y[iLow], rl, s.f)
	s.flops += float64(4 * len(s.f))
}

// refStep replicates the seed's unfused iteration: a fresh LocalExtremes
// scan, PairDeltas, then the two-axpy refUpdateF. Because refUpdateF
// invalidates the cached extremes, LocalExtremes rescans every iteration —
// exactly the pre-fusion control flow and flop charges. The pair's rows are
// made resident the way Step does it: which entries a fill evaluates (and so
// charges) depends on what is resident when it runs, and the fill is not what
// these tests compare.
func refStep(s *Solver) (done bool) {
	bHigh, iHigh, bLow, iLow := s.LocalExtremes()
	if iHigh < 0 || iLow < 0 || bLow-bHigh < 2*s.cfg.tol() {
		return true
	}
	s.cache.PrefetchPair(iHigh, iLow)
	u := s.PairDeltas(iHigh, iLow)
	if u.DAlphaHigh == 0 && u.DAlphaLow == 0 {
		return true
	}
	refUpdateF(s, iHigh, iLow, u)
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
// totals — across box weights, cache sizes and both storage formats.
func TestFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	de, y := twoBlobs(rng, 150, 2, 0.9)
	sp := sparseCopy(de)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"first-order", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}},
		{"weighted", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), PosWeight: 2.5}},
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

// TestThreadCountInvariance is the acceptance gate: the solver must emit
// bit-identical multipliers, bias, iteration counts, and flop totals for
// every Threads setting. m = 4096 clears the 2·scanGrain threshold, so
// Threads=4 actually exercises the chunked pool scans (deterministic
// chunk-ordered reduction) rather than the serial fallback.
func TestThreadCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x, y := twoBlobs(rng, 2048, 2, 1.0)
	base := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), MaxIter: 120}
	ref, err := Solve(x, y, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		cfg := base
		cfg.Threads = threads
		got, err := Solve(x, y, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("threads=%d", threads), got, ref)
	}
}

// TestParallelMatchesReferenceLarge: pool-parallel fused solve vs the
// unfused serial reference on a pool-sized problem. Run under -race this
// also exercises the worker-pool scan paths for data races.
func TestParallelMatchesReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x, y := twoBlobs(rng, 2048, 2, 0.8)
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), MaxIter: 80}
	want := refSolve(t, x, y, cfg)
	cfg.Threads = 4
	got, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "parallel-vs-serial-ref", got, want)
}

func benchBlobs(m int) (*la.Matrix, []float64) {
	rng := rand.New(rand.NewSource(7))
	return twoBlobs(rng, m/2, 2, 1.2)
}

// BenchmarkSolve measures the full fused SMO hot path on an RBF problem at
// the acceptance size m=4096 (iteration-capped so op time stays bounded).
// Threads follows the -cpu setting, so `-cpu 1,4` contrasts the serial and
// pool-parallel paths on multicore machines; results are bit-identical
// either way.
func BenchmarkSolve(b *testing.B) {
	x, y := benchBlobs(4096)
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), MaxIter: 60,
		Threads: runtime.GOMAXPROCS(0)}
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
	u := PairUpdate{}
	b.Run("fused", func(b *testing.B) {
		s := mk(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.fusedUpdateScan(0, 1, u)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		s := mk(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refUpdateF(s, 0, 1, u)
			s.LocalExtremes()
		}
	})
	b.Run("fused-half-at-bound", func(b *testing.B) {
		s := mixed(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.fusedUpdateScan(0, 1, u)
		}
	})
}
