package model

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/smo"
)

func trainBlobModel(t *testing.T, seed int64) (*Model, *la.Matrix, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := 80
	dataBuf := make([]float64, m*2)
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		dataBuf[i*2] = sign*2 + 0.4*rng.NormFloat64()
		dataBuf[i*2+1] = sign*2 + 0.4*rng.NormFloat64()
		y[i] = sign
	}
	x := la.NewDense(m, 2, dataBuf)
	cfg := smo.Config{C: 1, Kernel: kernel.RBF(0.5)}
	res, err := smo.Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return FromSolution(x, y, res.Alpha, res.B, cfg.Kernel), x, y
}

func TestFromSolutionAndPredict(t *testing.T) {
	m, x, y := trainBlobModel(t, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NSV() == 0 || m.NSV() == x.Rows() {
		t.Fatalf("NSV=%d", m.NSV())
	}
	if acc := Single(m, nil).Accuracy(x, y); acc < 0.98 {
		t.Errorf("train accuracy %.3f", acc)
	}
	preds := m.PredictAll(x)
	if len(preds) != x.Rows() {
		t.Fatal("PredictAll length")
	}
	for _, p := range preds {
		if p != 1 && p != -1 {
			t.Fatalf("prediction %v", p)
		}
	}
}

func TestFallbackNoSVs(t *testing.T) {
	x := la.NewDense(3, 1, []float64{1, 2, 3})
	y := []float64{1, 1, 1}
	m := FromSolution(x, y, []float64{0, 0, 0}, 0, kernel.RBF(1))
	if m.NSV() != 0 {
		t.Fatal("no SVs expected")
	}
	if m.Predict(x, 0) != 1 {
		t.Error("fallback should be the majority label +1")
	}
	yn := []float64{-1, -1, 1}
	mn := FromSolution(x, yn, []float64{0, 0, 0}, 0, kernel.RBF(1))
	if mn.Predict(x, 0) != -1 {
		t.Error("fallback should be -1")
	}
}

func TestSetRouting(t *testing.T) {
	// Two models: one always predicts via blob at (5,5), other at (-5,-5).
	mkModel := func(cx float64, label float64) *Model {
		x := la.NewDense(2, 2, []float64{cx, cx, cx + 0.5, cx + 0.5})
		y := []float64{label, label}
		return FromSolution(x, y, []float64{0, 0}, 0, kernel.RBF(1))
	}
	set := &Set{
		Models:  []*Model{mkModel(5, 1), mkModel(-5, -1)},
		Centers: la.NewDense(2, 2, []float64{5, 5, -5, -5}),
	}
	q := la.NewDense(2, 2, []float64{4, 4, -6, -4})
	if set.Route(q, 0) != 0 || set.Route(q, 1) != 1 {
		t.Fatal("routing wrong")
	}
	if set.Predict(q, 0) != 1 || set.Predict(q, 1) != -1 {
		t.Fatal("set predictions wrong")
	}
	if acc := set.Accuracy(q, []float64{1, -1}); acc != 1 {
		t.Fatalf("accuracy %v", acc)
	}
	if set.P() != 2 {
		t.Fatal("P")
	}
}

func TestSingleWrapper(t *testing.T) {
	m, x, y := trainBlobModel(t, 2)
	s := Single(m, []float64{0, 0})
	if s.P() != 1 {
		t.Fatal("single set size")
	}
	if acc := s.Accuracy(x, y); acc < 0.98 {
		t.Errorf("wrapped accuracy %.3f", acc)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m1, x, y := trainBlobModel(t, 3)
	m2, _, _ := trainBlobModel(t, 4)
	set := &Set{
		Models:  []*Model{m1, m2},
		Centers: la.NewDense(2, 2, []float64{2, 2, -2, -2}),
	}
	var buf bytes.Buffer
	if err := SaveSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.P() != 2 || got.NSV() != set.NSV() {
		t.Fatalf("P=%d NSV=%d want %d/%d", got.P(), got.NSV(), 2, set.NSV())
	}
	// Predictions must agree everywhere.
	for i := 0; i < x.Rows(); i++ {
		if set.Predict(x, i) != got.Predict(x, i) {
			t.Fatalf("prediction changed after round trip at %d", i)
		}
	}
	// Decisions numerically close (float formatting via %g is exact for
	// round-trippable values).
	for i := 0; i < 5; i++ {
		d1 := set.Models[0].Decision(x, i)
		d2 := got.Models[0].Decision(x, i)
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("decision drift %v vs %v", d1, d2)
		}
	}
	_ = y
}

func TestLoadSetErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus header\n",
		"casvm-model-set v1\nmodels x\n",
		"casvm-model-set v1\nmodels 1\nfeatures 2\nkernel bogus gamma 1 coef 0 scale 0 degree 0\n",
		"casvm-model-set v1\nmodels 1\nfeatures 2\nkernel gaussian gamma 1 coef 0 scale 0 degree 0\ncenters\n1 2\nmodel 0 nsv 1 bias 0 fallback 1\nbadline\n",
		"casvm-model-set v1\nmodels 1\nfeatures 2\nkernel gaussian gamma 1 coef 0 scale 0 degree 0\ncenters\n1\n",
	}
	for i, in := range cases {
		if _, err := LoadSet(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestValidateCatchesBadAlpha(t *testing.T) {
	x := la.NewDense(1, 1, []float64{1})
	m := &Model{
		Kernel: kernel.RBF(1),
		SVX:    x,
		SVY:    []float64{1},
		Alpha:  []float64{-0.5},
	}
	if err := m.Validate(); err == nil {
		t.Error("negative alpha should fail validation")
	}
}

// TestLoadSetAllocationBounded: loading a model costs memory in proportion to
// the model, not a fixed megabyte of scanner buffer — the serving registry
// and casvm.Load go through here on every (re)load. A 100-SV, 16-feature
// model is ≈ 37 KB of text and 21 KB of arrays.
func TestLoadSetAllocationBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nsv, n = 100, 16
	vals := make([]float64, nsv*n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	m := &Model{Kernel: kernel.RBF(1.0 / n), SVX: la.NewDense(nsv, n, vals),
		SVY: make([]float64, nsv), Alpha: make([]float64, nsv), B: 0.25, Fallback: 1}
	for i := range m.Alpha {
		m.SVY[i], m.Alpha[i] = float64(1-2*(i%2)), rng.Float64()+0.01
	}
	var buf bytes.Buffer
	if err := SaveSet(&buf, Single(m, make([]float64, n))); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	load := func() {
		set, err := LoadSet(bytes.NewReader(text))
		if err != nil || set.NSV() != nsv {
			t.Fatalf("load: %v", err)
		}
	}
	load()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	perLoad := (after.TotalAlloc - before.TotalAlloc) / runs
	if perLoad >= 256<<10 {
		t.Errorf("LoadSet of a %d-byte model allocated %d bytes, want < 256 KiB", len(text), perLoad)
	}
	allocs := testing.AllocsPerRun(runs, load)
	if allocs >= 2*nsv {
		t.Errorf("LoadSet made %.0f allocations for %d support vectors; an SV line should cost its text and no slice of fields", allocs, nsv)
	}
	t.Logf("%d bytes of text: %d bytes and %.0f allocations per load", len(text), perLoad, allocs)
}
