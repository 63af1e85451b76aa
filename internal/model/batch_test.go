package model

import (
	"math/rand"
	"runtime"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

// The batched prediction layer promises bit-identity with the per-row
// entry points, which stay in the API precisely so these tests can use
// them as the reference implementation.

func batchDense(rng *rand.Rand, rows, cols int) *la.Matrix {
	buf := make([]float64, rows*cols)
	for i := range buf {
		buf[i] = rng.NormFloat64()
	}
	return la.NewDense(rows, cols, buf)
}

func batchSparse(rng *rand.Rand, rows, cols int) *la.Matrix {
	rp := make([]int32, rows+1)
	var ix []int32
	var vx []float64
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.3 {
				ix = append(ix, int32(c))
				vx = append(vx, rng.NormFloat64())
			}
		}
		rp[r+1] = int32(len(ix))
	}
	return la.NewSparse(rows, cols, rp, ix, vx)
}

// syntheticModel builds a model directly (no training) so the SV count can
// span the svBlock boundary.
func syntheticModel(rng *rand.Rand, sv *la.Matrix, k kernel.Params) *Model {
	n := sv.Rows()
	m := &Model{
		Kernel:   k,
		SVX:      sv,
		SVY:      make([]float64, n),
		Alpha:    make([]float64, n),
		B:        0.3 * rng.NormFloat64(),
		Fallback: 1,
	}
	for i := 0; i < n; i++ {
		m.SVY[i] = float64(2*(i%2) - 1)
		m.Alpha[i] = 0.01 + rng.Float64()
	}
	return m
}

var batchKinds = []kernel.Params{
	{Kind: kernel.Linear},
	{Kind: kernel.Polynomial, Gamma: 0.5, Coef: 1, Degree: 2},
	kernel.RBF(0.2),
	{Kind: kernel.Sigmoid, Gamma: 0.5, Coef: 0.5, ScaleA: 0.7},
}

// TestDecisionAllMatchesDecisionBitwise covers every storage pairing with
// SV counts and query counts that are ragged against both block sizes.
func TestDecisionAllMatchesDecisionBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	feats := 17
	mats := func(rows int) []*la.Matrix {
		return []*la.Matrix{batchDense(rng, rows, feats), batchSparse(rng, rows, feats)}
	}
	for _, nsv := range []int{5, 300} { // below and across svBlock=256
		for _, sv := range mats(nsv) {
			for _, q := range mats(150) { // across qBlock=64, ragged tail
				for _, k := range batchKinds {
					m := syntheticModel(rng, sv, k)
					got := m.DecisionAll(q)
					for qi := range got {
						want := m.Decision(q, qi)
						if got[qi] != want {
							t.Fatalf("nsv=%d kind=%v: decision[%d] %v != %v",
								nsv, k.Kind, qi, got[qi], want)
						}
					}
					preds := m.PredictAll(q)
					for qi := range preds {
						if want := m.Predict(q, qi); preds[qi] != want {
							t.Fatalf("nsv=%d kind=%v: pred[%d] %v != %v",
								nsv, k.Kind, qi, preds[qi], want)
						}
					}
				}
			}
		}
	}
}

func TestPredictAllNoSVsFallback(t *testing.T) {
	x := la.NewDense(3, 1, []float64{1, 2, 3})
	m := FromSolution(x, []float64{1, 1, 1}, []float64{0, 0, 0}, 0, kernel.RBF(1))
	for _, p := range m.PredictAll(x) {
		if p != 1 {
			t.Fatalf("fallback prediction %v", p)
		}
	}
	d := m.DecisionAll(x)
	for _, v := range d {
		if v != -m.B {
			t.Fatalf("empty-model decision %v", v)
		}
	}
}

// TestRouteAllMatchesRouteBitwise checks the blocked centroid assignment
// against per-row Route for dense and sparse queries, including a center
// count of 1 and ties (duplicated centers must keep the strict-< winner).
func TestRouteAllMatchesRouteBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	feats := 9
	for _, np := range []int{1, 3} {
		centers := batchDense(rng, np, feats)
		if np == 3 {
			// Duplicate a center row: ties must resolve identically.
			cbuf := make([]float64, np*feats)
			for c := 0; c < np; c++ {
				copy(cbuf[c*feats:], centers.DenseRow(c))
			}
			copy(cbuf[2*feats:], cbuf[0:feats])
			centers = la.NewDense(np, feats, cbuf)
		}
		dummy := syntheticModel(rng, batchDense(rng, 4, feats), kernel.RBF(0.5))
		set := &Set{Centers: centers}
		for p := 0; p < np; p++ {
			set.Models = append(set.Models, dummy)
		}
		for _, q := range []*la.Matrix{batchDense(rng, 131, feats), batchSparse(rng, 131, feats)} {
			got := set.RouteAll(q)
			for qi := range got {
				if want := set.Route(q, qi); got[qi] != want {
					t.Fatalf("np=%d: route[%d] %d != %d", np, qi, got[qi], want)
				}
			}
		}
	}
}

// TestSetPredictAllMatchesPerRow exercises the grouped scatter/gather path
// with models of different kernels and an empty (no-SV) partition.
func TestSetPredictAllMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	feats := 11
	empty := FromSolution(la.NewDense(2, feats, make([]float64, 2*feats)),
		[]float64{-1, -1}, []float64{0, 0}, 0, kernel.RBF(1))
	set := &Set{
		Models: []*Model{
			syntheticModel(rng, batchDense(rng, 40, feats), kernel.RBF(0.3)),
			syntheticModel(rng, batchSparse(rng, 33, feats), kernel.Params{Kind: kernel.Linear}),
			empty,
		},
		Centers: batchDense(rng, 3, feats),
	}
	y := make([]float64, 97)
	for i := range y {
		y[i] = float64(2*(i%2) - 1)
	}
	for _, q := range []*la.Matrix{batchDense(rng, 97, feats), batchSparse(rng, 97, feats)} {
		got := set.PredictAll(q)
		correct := 0
		for qi := range got {
			want := set.Predict(q, qi)
			if got[qi] != want {
				t.Fatalf("pred[%d] %v != %v", qi, got[qi], want)
			}
			if want == y[qi] {
				correct++
			}
		}
		decs := set.DecisionAll(q)
		for qi := range decs {
			if want := set.Decision(q, qi); decs[qi] != want {
				t.Fatalf("decision[%d] %v != %v", qi, decs[qi], want)
			}
		}
		if acc := set.Accuracy(q, y); acc != float64(correct)/float64(len(y)) {
			t.Fatalf("accuracy %v", acc)
		}
		con := set.Confusion(q, y)
		if con.TP+con.FP+con.TN+con.FN != len(y) {
			t.Fatalf("confusion total %+v", con)
		}
	}
}

// BenchmarkPredictAll compares the tiled batch path against the per-row
// loop it replaced, on the shapes the README quotes.
func BenchmarkPredictAll(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	const nsv, nq, feats = 2048, 512, 64
	cases := []struct {
		name string
		k    kernel.Params
		svs  *la.Matrix
		q    *la.Matrix
	}{
		{"dense-linear", kernel.Params{Kind: kernel.Linear}, batchDense(rng, nsv, feats), batchDense(rng, nq, feats)},
		{"dense-rbf", kernel.RBF(0.05), batchDense(rng, nsv, feats), batchDense(rng, nq, feats)},
		{"sparse-rbf", kernel.RBF(0.05), batchSparse(rng, nsv, feats), batchSparse(rng, nq, feats)},
		// Mixed storage is where the per-row path degrades hardest: Eval
		// re-densifies the sparse query row for every single support
		// vector, the tile path once per tile column.
		{"mixed-rbf", kernel.RBF(0.05), batchDense(rng, nsv, feats), batchSparse(rng, nq, feats)},
		{"mixed-linear", kernel.Params{Kind: kernel.Linear}, batchDense(rng, nsv, feats), batchSparse(rng, nq, feats)},
	}
	for _, tc := range cases {
		m := syntheticModel(rng, tc.svs, tc.k)
		b.Run(tc.name+"/perRow", func(b *testing.B) {
			out := make([]float64, tc.q.Rows())
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for qi := range out {
					out[qi] = m.Predict(tc.q, qi)
				}
			}
		})
		b.Run(tc.name+"/tiled", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				_ = m.PredictAll(tc.q)
			}
		})
	}
}

// TestDecisionAllShapesAcrossScratchBounds walks the shapes where the tile
// scratch changes size — one query, one support vector, and one either side
// of each block edge — at one thread and at several, since the tile width
// follows the chunk a worker was handed.
func TestDecisionAllShapesAcrossScratchBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	const feats = 7
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, nsv := range []int{1, 255, 256, 257} {
			for _, nq := range []int{1, 63, 64, 65, 257} {
				for _, k := range []kernel.Params{kernel.RBF(0.2), {Kind: kernel.Linear}} {
					m := syntheticModel(rng, batchDense(rng, nsv, feats), k)
					q := batchDense(rng, nq, feats)
					got := m.DecisionAll(q)
					for qi := range got {
						if want := m.Decision(q, qi); got[qi] != want {
							t.Fatalf("procs=%d nsv=%d nq=%d kind=%v: decision[%d] %v != %v",
								procs, nsv, nq, k.Kind, qi, got[qi], want)
						}
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestDecisionAllScratchProportional holds the serving shape — one routed
// query against a 32-SV compressed model — to scratch sized for it, not for
// a full svBlock×qBlock tile (128 KB).
func TestDecisionAllScratchProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	m := syntheticModel(rng, batchDense(rng, 32, 64), kernel.RBF(0.05))
	q := batchDense(rng, 1, 64)
	m.DecisionAll(q) // norm caches fill once, outside the measurement
	if allocs := testing.AllocsPerRun(100, func() { m.DecisionAll(q) }); allocs > 8 {
		t.Errorf("DecisionAll(1×32): %v allocations per call, want ≤ 8", allocs)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			m.DecisionAll(q)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 2048 {
		t.Errorf("DecisionAll(1×32): %d bytes per call, want < 2048", got)
	}
}

// TestSetEvalAllSinglePass: the one-pass labels and decisions equal the
// per-row references bit for bit, on a set with an SV-less partition and a
// query whose decision is exactly zero (so the label is the Fallback).
func TestSetEvalAllSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const feats = 6
	q := batchDense(rng, 41, feats)
	empty := FromSolution(la.NewDense(2, feats, make([]float64, 2*feats)),
		[]float64{-1, -1}, []float64{0, 0}, 0, kernel.RBF(1))
	set := &Set{
		Models: []*Model{
			syntheticModel(rng, batchDense(rng, 19, feats), kernel.RBF(0.3)),
			empty,
			syntheticModel(rng, batchSparse(rng, 23, feats), kernel.Params{Kind: kernel.Linear}),
		},
		Centers: batchDense(rng, 3, feats),
	}
	// Shift one model's threshold onto a query it is routed, so that query's
	// decision is sum − sum = 0 and the label falls to Fallback (−1 here, so
	// a sign test alone would get it wrong).
	zeroed := -1
	for qi, r := range set.RouteAll(q) {
		if m := set.Models[r]; m.NSV() > 0 {
			m.B += m.Decision(q, qi)
			m.Fallback = -1
			zeroed = qi
			break
		}
	}
	if zeroed < 0 || set.Decision(q, zeroed) != 0 {
		t.Fatalf("fixture: no query with a zero decision (query %d)", zeroed)
	}
	emptyHit := false
	labels, decs := set.EvalAll(q)
	wantL, wantD := set.PredictAll(q), set.DecisionAll(q)
	for qi := range labels {
		emptyHit = emptyHit || set.Models[set.Route(q, qi)].NSV() == 0
		if labels[qi] != set.Predict(q, qi) || labels[qi] != wantL[qi] {
			t.Fatalf("label[%d] %v, per-row %v, PredictAll %v", qi, labels[qi], set.Predict(q, qi), wantL[qi])
		}
		if decs[qi] != set.Decision(q, qi) || decs[qi] != wantD[qi] {
			t.Fatalf("decision[%d] %v, per-row %v, DecisionAll %v", qi, decs[qi], set.Decision(q, qi), wantD[qi])
		}
	}
	if labels[zeroed] != -1 {
		t.Fatalf("zero-decision query labelled %v, want the fallback -1", labels[zeroed])
	}
	if !emptyHit {
		t.Fatal("fixture: no query routed to the SV-less model")
	}
}
