package smo

import (
	"math"
	"math/rand"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

// twoBlobs builds a 2-D two-class Gaussian blob dataset: class +1 around
// (+d, +d), class −1 around (−d, −d).
func twoBlobs(rng *rand.Rand, mPerClass int, d, noise float64) (*la.Matrix, []float64) {
	m := 2 * mPerClass
	data := make([]float64, 0, m*2)
	y := make([]float64, 0, m)
	for i := 0; i < mPerClass; i++ {
		data = append(data, d+noise*rng.NormFloat64(), d+noise*rng.NormFloat64())
		y = append(y, 1)
		data = append(data, -d+noise*rng.NormFloat64(), -d+noise*rng.NormFloat64())
		y = append(y, -1)
	}
	return la.NewDense(m, 2, data), y
}

// decision evaluates Σ αᵢyᵢK(x, xᵢ) − b for row q of the query matrix.
func decision(x *la.Matrix, y, alpha []float64, b float64, k kernel.Params, q *la.Matrix, qi int) float64 {
	var s float64
	for i := 0; i < x.Rows(); i++ {
		if alpha[i] == 0 {
			continue
		}
		s += alpha[i] * y[i] * k.Eval(x, i, q, qi)
	}
	return s - b
}

func defaultCfg() Config {
	return Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}
}

func TestSolveSeparableBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := twoBlobs(rng, 50, 2, 0.5)
	res, err := Solve(x, y, defaultCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("should converge")
	}
	if res.Iters <= 0 {
		t.Fatal("no iterations")
	}
	correct := 0
	for i := 0; i < x.Rows(); i++ {
		d := decision(x, y, res.Alpha, res.B, defaultCfg().Kernel, x, i)
		if (d > 0) == (y[i] > 0) {
			correct++
		}
	}
	if acc := float64(correct) / float64(x.Rows()); acc < 0.98 {
		t.Errorf("training accuracy %.3f < 0.98", acc)
	}
	if svCount(res.Alpha) == 0 || svCount(res.Alpha) == x.Rows() {
		t.Errorf("SV count %d should be a strict subset for separable data", svCount(res.Alpha))
	}
}

func TestSolveXORWithRBF(t *testing.T) {
	// XOR pattern: not linearly separable; RBF must handle it.
	data := []float64{
		1, 1, -1, -1, 1, -1, -1, 1,
	}
	x := la.NewDense(4, 2, data)
	y := []float64{1, 1, -1, -1}
	cfg := Config{C: 10, Tol: 1e-4, Kernel: kernel.RBF(1)}
	res, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d := decision(x, y, res.Alpha, res.B, cfg.Kernel, x, i)
		if (d > 0) != (y[i] > 0) {
			t.Errorf("XOR point %d misclassified (d=%v y=%v)", i, d, y[i])
		}
	}
}

func TestLinearKernelSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := twoBlobs(rng, 40, 3, 0.3)
	cfg := Config{C: 1, Kernel: kernel.Params{Kind: kernel.Linear}}
	res, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < x.Rows(); i++ {
		d := decision(x, y, res.Alpha, res.B, cfg.Kernel, x, i)
		if (d > 0) == (y[i] > 0) {
			correct++
		}
	}
	if acc := float64(correct) / float64(x.Rows()); acc < 0.97 {
		t.Errorf("linear training accuracy %.3f", acc)
	}
}

// KKT feasibility: the trained multipliers must satisfy the box and
// equality constraints of eqn (2), and the duality gap must respect Tol —
// checked against a *recomputed* f so incremental-maintenance bugs show.
func TestKKTConditions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		x, y := twoBlobs(rng, 30+10*trial, 1.5, 0.8)
		cfg := Config{C: 0.5 + float64(trial)*0.5, Tol: 1e-3, Kernel: kernel.RBF(0.7)}
		res, err := Solve(x, y, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sumAY float64
		for i, a := range res.Alpha {
			if a < -1e-12 || a > cfg.C+1e-12 {
				t.Fatalf("trial %d: alpha[%d]=%v outside [0,%v]", trial, i, a, cfg.C)
			}
			sumAY += a * y[i]
		}
		if math.Abs(sumAY) > 1e-9*(1+cfg.C*float64(len(y))) {
			t.Fatalf("trial %d: Σαy=%v violated", trial, sumAY)
		}
		// Recompute f from scratch and verify the dual thresholds.
		m := x.Rows()
		f := make([]float64, m)
		for i := 0; i < m; i++ {
			var s float64
			for j := 0; j < m; j++ {
				if res.Alpha[j] != 0 {
					s += res.Alpha[j] * y[j] * cfg.Kernel.Eval(x, i, x, j)
				}
			}
			f[i] = s - y[i]
		}
		bHigh, bLow := math.Inf(1), math.Inf(-1)
		for i := 0; i < m; i++ {
			inHigh := (y[i] > 0 && res.Alpha[i] < cfg.C-1e-9) || (y[i] < 0 && res.Alpha[i] > 1e-9)
			inLow := (y[i] > 0 && res.Alpha[i] > 1e-9) || (y[i] < 0 && res.Alpha[i] < cfg.C-1e-9)
			if inHigh && f[i] < bHigh {
				bHigh = f[i]
			}
			if inLow && f[i] > bLow {
				bLow = f[i]
			}
		}
		if gap := bLow - bHigh; gap > 2*cfg.Tol+1e-6 {
			t.Fatalf("trial %d: duality gap %v exceeds 2·tol", trial, gap)
		}
	}
}

func TestWarmStartConvergesFast(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := twoBlobs(rng, 60, 1.5, 0.7)
	cfg := defaultCfg()
	cold, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(x, y, cfg, cold.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iters > cold.Iters/5+5 {
		t.Errorf("warm start took %d iters vs cold %d", warm.Iters, cold.Iters)
	}
}

// TestWarmStartFillsThroughCache pins what a warm start costs and what it
// may not change. The reference rebuilds f the way New did before the rows
// went through the cache — one CrossRow(x, x, j) per inherited support vector
// into a throwaway buffer, axpy'd in index order — and then solves on a cold
// cache. Same multipliers, bias and iterations bit for bit (CrossRow(x,x,j)
// is row j by symmetry, the axpy order is unchanged); strictly fewer cache
// misses, because the solve finds the support vectors' rows resident.
func TestWarmStartFillsThroughCache(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	de, y := twoBlobs(rng, 80, 1.2, 0.9)
	cfg := defaultCfg()
	for _, mat := range []struct {
		name string
		x    *la.Matrix
	}{{"dense", de}, {"sparse", sparseCopy(de)}} {
		// An upper Cascade layer's input: multipliers of a solve stopped early.
		part := cfg
		part.MaxIter = 40
		lower, err := Solve(mat.x, y, part, nil)
		if err != nil {
			t.Fatal(err)
		}
		if svCount(lower.Alpha) < 10 {
			t.Fatalf("%s: only %d inherited support vectors", mat.name, svCount(lower.Alpha))
		}

		ref, err := New(mat.x, y, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, mat.x.Rows())
		for j, a := range lower.Alpha {
			ref.alpha[j] = a
			ref.setMember(j)
			if a != 0 {
				cfg.Kernel.CrossRow(mat.x, mat.x, j, row)
				la.Axpy(a*y[j], row, ref.f)
			}
		}
		got, err := New(mat.x, y, cfg, lower.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.f {
			if got.f[i] != ref.f[i] {
				t.Fatalf("%s: warm f[%d] %v, reference %v", mat.name, i, got.f[i], ref.f[i])
			}
		}
		for !ref.Step() {
		}
		for !got.Step() {
		}
		if got.iters != ref.iters || got.Bias() != ref.Bias() {
			t.Fatalf("%s: iters/bias %d/%v, reference %d/%v", mat.name, got.iters, got.Bias(), ref.iters, ref.Bias())
		}
		for i := range ref.alpha {
			if got.alpha[i] != ref.alpha[i] {
				t.Fatalf("%s: alpha[%d] %v, reference %v", mat.name, i, got.alpha[i], ref.alpha[i])
			}
		}
		_, gotMisses, _ := got.cache.Stats()
		_, refMisses, _ := ref.cache.Stats()
		if refMisses += int64(svCount(lower.Alpha)); gotMisses >= refMisses {
			t.Fatalf("%s: %d row fills, the throwaway rebuild plus a cold solve made %d", mat.name, gotMisses, refMisses)
		}
	}
}

func TestWarmStartClipsOutOfBox(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := twoBlobs(rng, 10, 2, 0.3)
	warm := make([]float64, x.Rows())
	for i := range warm {
		warm[i] = 5 // way above C=1
	}
	s, err := New(x, y, defaultCfg(), warm)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range s.Alpha() {
		if a < 0 || a > 1 {
			t.Fatalf("alpha[%d]=%v not clipped", i, a)
		}
	}
}

func TestSingleClassInput(t *testing.T) {
	x := la.NewDense(4, 1, []float64{1, 2, 3, 4})
	y := []float64{1, 1, 1, 1}
	res, err := Solve(x, y, defaultCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 0 || svCount(res.Alpha) != 0 {
		t.Errorf("single-class should converge immediately: iters=%d svs=%d", res.Iters, svCount(res.Alpha))
	}
}

func TestValidation(t *testing.T) {
	x := la.NewDense(2, 1, []float64{1, 2})
	if _, err := Solve(x, []float64{1}, defaultCfg(), nil); err == nil {
		t.Error("label length mismatch should fail")
	}
	if _, err := Solve(x, []float64{1, 0.5}, defaultCfg(), nil); err == nil {
		t.Error("non-±1 label should fail")
	}
	cfg := defaultCfg()
	cfg.C = 0
	if _, err := Solve(x, []float64{1, -1}, cfg, nil); err == nil {
		t.Error("C=0 should fail")
	}
	cfg = defaultCfg()
	cfg.Kernel = kernel.Params{Kind: kernel.Gaussian} // gamma 0
	if _, err := Solve(x, []float64{1, -1}, cfg, nil); err == nil {
		t.Error("invalid kernel should fail")
	}
	if _, err := Solve(x, []float64{1, -1}, defaultCfg(), []float64{0}); err == nil {
		t.Error("warm length mismatch should fail")
	}
}

func TestMaxIterCap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := twoBlobs(rng, 100, 0.2, 1.0) // heavily overlapping → many iters
	cfg := defaultCfg()
	cfg.MaxIter = 3
	res, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters > 3 {
		t.Errorf("iters=%d exceeded cap", res.Iters)
	}
	if res.Converged {
		t.Error("should not report convergence when capped")
	}
}

func TestIterationsGrowWithSamples(t *testing.T) {
	// The Table III phenomenon: iterations scale roughly linearly with m.
	// Per-seed counts are noisy, so compare the small and large endpoints
	// with a generous factor.
	iters := func(mpc int) int {
		rng := rand.New(rand.NewSource(7))
		x, y := twoBlobs(rng, mpc, 0.8, 1.0)
		res, err := Solve(x, y, defaultCfg(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Iters
	}
	small, large := iters(25), iters(400)
	if large < 4*small {
		t.Errorf("iterations should scale with m: m=50→%d iters, m=800→%d iters", small, large)
	}
}

func TestTakeFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := twoBlobs(rng, 20, 2, 0.5)
	s, err := New(x, y, defaultCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && !s.Step(); i++ {
	}
	f1 := s.TakeFlops()
	if f1 <= 0 {
		t.Fatal("flops should accumulate")
	}
	if f2 := s.TakeFlops(); f2 != 0 {
		t.Fatalf("drained twice: %v", f2)
	}
	// More steps accumulate again.
	s.Step()
	if s.TakeFlops() <= 0 {
		t.Error("flops after more steps")
	}
}

func TestSparseDenseSameSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	de, y := twoBlobs(rng, 30, 2, 0.5)
	// Sparse copy.
	m, n := de.Rows(), de.Features()
	rp := make([]int32, m+1)
	var ix []int32
	var vx []float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ix = append(ix, int32(j))
			vx = append(vx, de.At(i, j))
		}
		rp[i+1] = int32(len(ix))
	}
	sp := la.NewSparse(m, n, rp, ix, vx)
	rd, err := Solve(de, y, defaultCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Solve(sp, y, defaultCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Dense and sparse dot products accumulate in different orders, so
	// iteration paths may differ slightly; the learned decision function
	// must still agree on every training point.
	if diff := rd.Iters - rs.Iters; diff > rd.Iters/4+3 || -diff > rd.Iters/4+3 {
		t.Errorf("iteration counts far apart: %d vs %d", rd.Iters, rs.Iters)
	}
	for i := 0; i < m; i++ {
		dd := decision(de, y, rd.Alpha, rd.B, defaultCfg().Kernel, de, i)
		ds := decision(sp, y, rs.Alpha, rs.B, defaultCfg().Kernel, sp, i)
		if math.Abs(dd-ds) > 0.05 || (dd > 0) != (ds > 0) {
			t.Fatalf("decision[%d] %v vs %v", i, dd, ds)
		}
	}
}

func TestApplyColumnsMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := twoBlobs(rng, 15, 2, 0.5)
	cfg := defaultCfg()
	a, _ := New(x, y, cfg, nil)
	b, _ := New(x, y, cfg, nil)

	// One local step on a.
	bh, ih, bl, il := a.LocalExtremes()
	_ = bh
	_ = bl
	u := a.PairDeltas(ih, il)
	refUpdateF(a, ih, il, u)

	// Same step on b via the distributed column path.
	b.AddAlpha(ih, u.DAlphaHigh)
	b.AddAlpha(il, u.DAlphaLow)
	colH := make([]float64, x.Rows())
	colL := make([]float64, x.Rows())
	b.FillColumn(x, ih, colH)
	b.FillColumn(x, il, colL)
	b.ApplyColumns(colH, y[ih], u.DAlphaHigh, colL, y[il], u.DAlphaLow)

	for i := range a.f {
		if math.Abs(a.f[i]-b.f[i]) > 1e-9 {
			t.Fatalf("f[%d] %v vs %v", i, a.f[i], b.f[i])
		}
	}
	for i := range a.Alpha() {
		if math.Abs(a.Alpha()[i]-b.Alpha()[i]) > 1e-12 {
			t.Fatalf("alpha[%d] %v vs %v", i, a.Alpha()[i], b.Alpha()[i])
		}
	}
}

// svCount returns the number of nonzero multipliers.
func svCount(alpha []float64) int {
	n := 0
	for _, a := range alpha {
		if a > 0 {
			n++
		}
	}
	return n
}
