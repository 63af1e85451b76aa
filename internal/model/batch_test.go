package model

import (
	"math"
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
						want := decision(m, q, qi)
						if got[qi] != want {
							t.Fatalf("nsv=%d kind=%v: decision[%d] %v != %v",
								nsv, k.Kind, qi, got[qi], want)
						}
					}
					preds := m.PredictAll(q)
					for qi := range preds {
						if want := predict(m, q, qi); preds[qi] != want {
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

// routeRef is the scalar nearest-center loop: one clamped
// ‖q‖² + ‖c‖² − 2·DotVec per center, strict-< from +Inf.
func routeRef(s *Set, q *la.Matrix, qi int) int {
	best, bi := math.Inf(1), 0
	for c := 0; c < s.Centers.Rows(); c++ {
		d := max(0, q.SqNormRow(qi)+s.Centers.SqNormRow(c)-2*q.DotVec(qi, s.Centers.DenseRow(c)))
		if d < best {
			best, bi = d, c
		}
	}
	return bi
}

// TestRouteAllMatchesRouteBitwise checks the blocked centroid assignment and
// per-row Route against the scalar loop for dense and sparse queries,
// including a center count of 1 and ties (duplicated centers must keep the
// strict-< winner).
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
				want := routeRef(set, q, qi)
				if got[qi] != want {
					t.Fatalf("np=%d: RouteAll[%d] %d, scalar %d", np, qi, got[qi], want)
				}
				if r := route(set, q, qi); r != want {
					t.Fatalf("np=%d: Route(%d) %d, scalar %d", np, qi, r, want)
				}
			}
		}
	}
}

// TestRouteTiesLowestIndex: a query equal to a center, with that center
// duplicated at a higher index, routes to the lowest index in Route and
// RouteAll, dense and sparse. The distance is clamped at 0, which is new for
// Route: it can change an argmin only when two centers with different values
// both come out ≤ 0 for the same query, and then the lower index wins.
func TestRouteTiesLowestIndex(t *testing.T) {
	a, b := []float64{0.3, -1.7, 2.2}, []float64{4.1, 0.6, -0.9}
	var cdata []float64
	for _, r := range [][]float64{b, a, b, a} {
		cdata = append(cdata, r...)
	}
	set := &Set{Centers: la.NewDense(4, 3, cdata)}
	dense := la.NewDense(2, 3, append(append([]float64(nil), a...), b...))
	sparse := la.NewSparse(2, 3, []int32{0, 3, 6}, []int32{0, 1, 2, 0, 1, 2}, dense.DenseRow(0)[:6])
	for _, q := range []*la.Matrix{dense, sparse} {
		all := set.RouteAll(q)
		for qi, want := range []int{1, 0} {
			if r := route(set, q, qi); r != want || all[qi] != want {
				t.Errorf("sparse=%v query %d: Route %d RouteAll %d, want %d", q.Sparse(), qi, r, all[qi], want)
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
			want := setPredict(set, q, qi)
			if got[qi] != want {
				t.Fatalf("pred[%d] %v != %v", qi, got[qi], want)
			}
			if want == y[qi] {
				correct++
			}
		}
		decs := set.DecisionAll(q)
		for qi := range decs {
			if want := setDecision(set, q, qi); decs[qi] != want {
				t.Fatalf("decision[%d] %v != %v", qi, decs[qi], want)
			}
		}
		if acc := set.Accuracy(q, y); acc != float64(correct)/float64(len(y)) {
			t.Fatalf("accuracy %v", acc)
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
					out[qi] = predict(m, tc.q, qi)
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
						if want := decision(m, q, qi); got[qi] != want {
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
			m.B += decision(m, q, qi)
			m.Fallback = -1
			zeroed = qi
			break
		}
	}
	if zeroed < 0 || setDecision(set, q, zeroed) != 0 {
		t.Fatalf("fixture: no query with a zero decision (query %d)", zeroed)
	}
	emptyHit := false
	labels, decs := set.EvalAll(q)
	wantL, wantD := set.PredictAll(q), set.DecisionAll(q)
	for qi := range labels {
		emptyHit = emptyHit || set.Models[route(set, q, qi)].NSV() == 0
		if labels[qi] != setPredict(set, q, qi) || labels[qi] != wantL[qi] {
			t.Fatalf("label[%d] %v, per-row %v, PredictAll %v", qi, labels[qi], setPredict(set, q, qi), wantL[qi])
		}
		if decs[qi] != setDecision(set, q, qi) || decs[qi] != wantD[qi] {
			t.Fatalf("decision[%d] %v, per-row %v, DecisionAll %v", qi, decs[qi], setDecision(set, q, qi), wantD[qi])
		}
	}
	if labels[zeroed] != -1 {
		t.Fatalf("zero-decision query labelled %v, want the fallback -1", labels[zeroed])
	}
	if !emptyHit {
		t.Fatal("fixture: no query routed to the SV-less model")
	}
}

// TestRoutedPassAllocatesNoRows: a warm P=8 Set.PredictAll over dense
// queries allocates its labels and a fixed handful of small objects — the
// same count at 64, 256 and 1,024 queries, with no query-sized buffer
// beside the labels — and a pass whose grouped order is the identity (P = 1,
// or every query routed to one model) gathers nothing, yet answers as the
// per-row oracle does.
func TestRoutedPassAllocatesNoRows(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	const feats, np = 16, 8
	set := &Set{Centers: batchDense(rng, np, feats)}
	for r := 0; r < np; r++ {
		set.Models = append(set.Models, syntheticModel(rng, batchDense(rng, 40, feats), kernel.RBF(0.1)))
	}
	// near returns n queries close to the given centers in turn, so every
	// listed model is routed a group at every size.
	near := func(n int, centers ...int) *la.Matrix {
		buf := make([]float64, n*feats)
		for i := 0; i < n; i++ {
			c := set.Centers.DenseRow(centers[i%len(centers)])
			for j := range feats {
				buf[i*feats+j] = c[j] + 0.01*rng.NormFloat64()
			}
		}
		return la.NewDense(n, feats, buf)
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if !raceDetector {
		// On one P every Get finds the scratch the call before Put: a
		// pool's per-P slot is not taken by another P, so a goroutine that
		// moved would remake it.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var counts []float64
		for _, n := range []int{64, 256, 1024} {
			q := near(n, all...)
			set.PredictAll(q) // q's norm cache and the scratch fill once
			counts = append(counts, testing.AllocsPerRun(20, func() { set.PredictAll(q) }))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 20 {
				set.PredictAll(q)
			}
			runtime.ReadMemStats(&after)
			if got, labels := (after.TotalAlloc-before.TotalAlloc)/20, uint64(8*n); got > labels+4096 {
				t.Errorf("PredictAll(%d queries): %d bytes per call, want ≤ %d (labels) + 4096", n, got, labels)
			}
		}
		if counts[0] != counts[1] || counts[1] != counts[2] || counts[0] > np+8 {
			t.Errorf("PredictAll at 64, 256, 1024 queries: %v allocations per call, want one count ≤ %d", counts, np+8)
		}
	}
	single := Single(set.Models[0], set.Centers.DenseRow(0))
	for _, c := range []struct {
		name   string
		set    *Set
		q      *la.Matrix
		gather bool
	}{
		{"P=8, every model", set, near(64, all...), true},
		{"P=8, one model", set, near(64, 3), false},
		{"P=1", single, near(64, all...), false},
	} {
		sc := new(evalScratch)
		labels, decs := make([]float64, c.q.Rows()), make([]float64, c.q.Rows())
		c.set.eval(c.q, sc, labels, decs)
		if gathered := sc.gather != nil; gathered != c.gather {
			t.Errorf("%s: gathered %v, want %v", c.name, gathered, c.gather)
		}
		for qi := range labels {
			if labels[qi] != setPredict(c.set, c.q, qi) || decs[qi] != setDecision(c.set, c.q, qi) {
				t.Fatalf("%s: query %d: label %v decision %v, per-row %v %v",
					c.name, qi, labels[qi], decs[qi], setPredict(c.set, c.q, qi), setDecision(c.set, c.q, qi))
			}
		}
	}
}
