package kmeans

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"casvm/internal/la"
	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
)

// blobs builds k well-separated Gaussian clusters of mPer points each in
// R^n; returns the data and the true assignment.
func blobs(rng *rand.Rand, k, mPer, n int, sep float64) (*la.Matrix, []int) {
	m := k * mPer
	data := make([]float64, m*n)
	truth := make([]int, m)
	for i := 0; i < m; i++ {
		c := i % k
		truth[i] = c
		for j := 0; j < n; j++ {
			center := 0.0
			if j == c%n {
				center = sep * float64(1+c/n)
			}
			data[i*n+j] = center + 0.3*rng.NormFloat64()
		}
	}
	return la.NewDense(m, n, data), truth
}

// clusterPurity returns the fraction of samples whose cluster's majority
// truth label matches their own truth label.
func clusterPurity(assign, truth []int, k int) float64 {
	counts := make([]map[int]int, k)
	for i := range counts {
		counts[i] = map[int]int{}
	}
	for i, a := range assign {
		counts[a][truth[i]]++
	}
	correct := 0
	for _, m := range counts {
		best := 0
		for _, v := range m {
			if v > best {
				best = v
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(assign))
}

func TestSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, _ := blobs(rng, 3, 10, 4, 5)
	s := Seed(x, 5, rng)
	if s.Rows() != 5 || s.Features() != 4 {
		t.Fatalf("seed dims %d×%d", s.Rows(), s.Features())
	}
	// Seeds must be actual samples.
	for c := 0; c < 5; c++ {
		found := false
		for i := 0; i < x.Rows(); i++ {
			if slices.Equal(s.DenseRow(c), x.DenseRow(i)) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("seed %d is not a sample", c)
		}
	}
}

func TestSeedPanicsWhenKTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	rng := rand.New(rand.NewSource(1))
	x := la.NewDense(2, 1, []float64{1, 2})
	Seed(x, 3, rng)
}

func TestRunRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, truth := blobs(rng, 4, 50, 6, 8)
	res := Run(x, Seed(x, 4, rng), 0, 0)
	if res.Iters < 1 || res.Iters > DefaultMaxIter {
		t.Fatalf("iters=%d", res.Iters)
	}
	if p := clusterPurity(res.Assign, truth, 4); p < 0.95 {
		t.Errorf("purity %.3f < 0.95", p)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != x.Rows() {
		t.Errorf("sizes sum %d != m %d", total, x.Rows())
	}
	if res.Flops <= 0 {
		t.Error("flops should be positive")
	}
}

// Lloyd's algorithm must not increase the within-cluster sum of squares.
func TestRunObjectiveDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, _ := blobs(rng, 3, 40, 5, 3)
	wcss := func(centers *la.Matrix, assign []int) float64 {
		var s float64
		buf := make([]float64, x.Features())
		for i := 0; i < x.Rows(); i++ {
			for j, v := range x.RowInto(i, buf) {
				d := v - centers.At(assign[i], j)
				s += d * d
			}
		}
		return s
	}
	centers := Seed(x, 3, rng)
	assign := make([]int, x.Rows())
	for i := range assign {
		assign[i] = -1
	}
	AssignAll(x, centers, assign)
	prev := wcss(centers, assign)
	for sweep := 0; sweep < 6; sweep++ {
		res := Run(x, centers, 1e-12, 1)
		centers = res.Centers
		copy(assign, res.Assign)
		cur := wcss(centers, assign)
		if cur > prev+1e-9 {
			t.Fatalf("sweep %d: objective rose %v -> %v", sweep, prev, cur)
		}
		prev = cur
	}
}

func TestEmptyClusterKeepsCenter(t *testing.T) {
	// Two points, three clusters: one cluster must stay empty without NaN.
	x := la.NewDense(2, 1, []float64{0, 10})
	centers := la.NewDense(3, 1, []float64{0, 10, 100})
	res := Run(x, centers, 0, 5)
	for c := 0; c < 3; c++ {
		if math.IsNaN(res.Centers.At(c, 0)) {
			t.Fatalf("center %d is NaN", c)
		}
	}
	if res.Centers.At(2, 0) != 100 {
		t.Errorf("empty cluster center should persist, got %v", res.Centers.At(2, 0))
	}
}

func TestRunSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	de, truth := blobs(rng, 3, 30, 5, 6)
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
	sp := la.NewSparse(m, n, rp, ix, vx)
	res := Run(sp, Seed(sp, 3, rng), 0, 0)
	if p := clusterPurity(res.Assign, truth, 3); p < 0.9 {
		t.Errorf("sparse purity %.3f", p)
	}
}

func TestRunDistributedMatchesQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, truth := blobs(rng, 4, 40, 5, 8)
	const p = 4
	m := x.Rows()
	per := m / p

	w := mpi.NewWorld(p, perfmodel.Hopper(), 7)
	assigns := make([][]int, p)
	var iters [p]int
	err := w.Run(func(c *mpi.Comm) error {
		lo := c.Rank() * per
		hi := lo + per
		rows := make([]int, 0, per)
		for i := lo; i < hi; i++ {
			rows = append(rows, i)
		}
		local := x.Subset(rows)
		res := RunDistributed(c, local, 4, 0, 0)
		assigns[c.Rank()] = res.Assign
		iters[c.Rank()] = res.Iters
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stitch global assignment back together.
	global := make([]int, 0, m)
	for r := 0; r < p; r++ {
		global = append(global, assigns[r]...)
	}
	reordered := make([]int, m)
	for r := 0; r < p; r++ {
		for i := 0; i < per; i++ {
			reordered[r*per+i] = global[r*per+i]
		}
	}
	if purity := clusterPurity(reordered, truth, 4); purity < 0.9 {
		t.Errorf("distributed purity %.3f", purity)
	}
	for r := 1; r < p; r++ {
		if iters[r] != iters[0] {
			t.Errorf("iteration counts diverged across ranks: %v", iters)
		}
	}
	if w.Stats().TotalBytes() == 0 {
		t.Error("distributed kmeans must communicate")
	}
}

func TestRunDistributedSingleRank(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, _ := blobs(rng, 2, 20, 3, 6)
	w := mpi.NewWorld(1, perfmodel.Hopper(), 7)
	err := w.Run(func(c *mpi.Comm) error {
		res := RunDistributed(c, x, 2, 0, 0)
		if len(res.Assign) != x.Rows() {
			t.Errorf("assign len %d", len(res.Assign))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().TotalBytes() != 0 {
		t.Error("single rank should not communicate")
	}
}

func TestRunDistributedKLargerThanRankBlock(t *testing.T) {
	// Rank 0 has fewer samples than k; seeding must still produce k centers.
	rng := rand.New(rand.NewSource(7))
	x, _ := blobs(rng, 2, 6, 3, 6)
	w := mpi.NewWorld(4, perfmodel.Hopper(), 7)
	per := x.Rows() / 4
	err := w.Run(func(c *mpi.Comm) error {
		rows := make([]int, 0, per)
		for i := c.Rank() * per; i < (c.Rank()+1)*per; i++ {
			rows = append(rows, i)
		}
		res := RunDistributed(c, x.Subset(rows), 5, 0, 0)
		if res.Centers.Rows() != 5 {
			t.Errorf("centers=%d", res.Centers.Rows())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sparseDrop returns x as CSR with about half of its entries dropped.
func sparseDrop(rng *rand.Rand, x *la.Matrix) *la.Matrix {
	m, n := x.Rows(), x.Features()
	rp := make([]int32, m+1)
	var ix []int32
	var vx []float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				ix = append(ix, int32(j))
				vx = append(vx, x.At(i, j))
			}
		}
		rp[i+1] = int32(len(ix))
	}
	return la.NewSparse(m, n, rp, ix, vx)
}

// TestAssignAllMatchesScalar holds AssignAll to the scalar sweep it
// replaced — one clamped ‖x‖² + ‖c‖² − 2·DotVec per (row, center) pair and a
// strict-< argmin — on dense and sparse rows whose count is not a multiple
// of la.SqDistEach's block.
func TestAssignAllMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	de, _ := blobs(rng, 5, 27, 6, 2)
	for _, x := range []*la.Matrix{de, sparseDrop(rng, de)} {
		centers := Seed(x, 5, rng)
		want := make([]int, x.Rows())
		for i := range want {
			best := math.Inf(1)
			for c := 0; c < centers.Rows(); c++ {
				d := x.SqNormRow(i) + centers.SqNormRow(c) - 2*x.DotVec(i, centers.DenseRow(c))
				if d < 0 {
					d = 0
				}
				if d < best {
					best, want[i] = d, c
				}
			}
		}
		got := make([]int, x.Rows())
		for i := range got {
			got[i] = -1
		}
		changed, _ := AssignAll(x, centers, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sparse=%v row %d: assigned %d, scalar %d", x.Sparse(), i, got[i], want[i])
			}
		}
		if changed != x.Rows() {
			t.Errorf("sparse=%v: %d of %d rows changed", x.Sparse(), changed, x.Rows())
		}
	}
}

// TestAssignAllTiesLowestIndex: a row equal to a center, and a center
// duplicated at another index, go to the lowest index among the tied
// centers — the rule Route, RouteAll and FCFS share (la.ArgMin).
func TestAssignAllTiesLowestIndex(t *testing.T) {
	a, b := []float64{0.3, -1.7, 2.2}, []float64{4.1, 0.6, -0.9}
	var cdata, xdata []float64
	for _, r := range [][]float64{a, b, b, a} {
		cdata = append(cdata, r...)
	}
	for _, r := range [][]float64{b, a, b} {
		xdata = append(xdata, r...)
	}
	x, centers := la.NewDense(3, 3, xdata), la.NewDense(4, 3, cdata)
	assign := []int{-1, -1, -1}
	AssignAll(x, centers, assign)
	if assign[0] != 1 || assign[1] != 0 || assign[2] != 1 {
		t.Errorf("assign %v, want [1 0 1]", assign)
	}
}

// lloydRef is lloyd before its payloads alternated: a fresh payload every
// sweep, reduced into a new slice.
func lloydRef(c *mpi.Comm, x *la.Matrix, centers *la.Matrix, total int) *Result {
	k, n := centers.Rows(), x.Features()
	assign := make([]int, x.Rows())
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{Assign: assign}
	for res.Iters < DefaultMaxIter {
		changed, fl := AssignAll(x, centers, assign)
		res.Flops += fl
		res.Iters++
		payload := make([]float64, k*n+k+1)
		Accumulate(x, assign, payload[:k*n])
		for _, a := range assign {
			payload[k*n+a]++
		}
		payload[k*n+k] = float64(changed)
		if c == nil {
			res.Flops += float64(x.NNZ())
		} else {
			c.Charge(fl)
			c.Charge(float64(x.NNZ()))
			c.AllreduceSum(payload)
		}
		centers = Centroids(centers, payload[:k*n], payload[k*n:k*n+k])
		if payload[k*n+k]/float64(total) <= DefaultThreshold {
			break
		}
	}
	res.Centers = centers
	res.Sizes = Sizes(assign, k)
	return res
}

// sameResult reports whether two clusterings agree bit for bit.
func sameResult(a, b *Result) bool {
	if a.Iters != b.Iters || a.Flops != b.Flops || !slices.Equal(a.Assign, b.Assign) || !slices.Equal(a.Sizes, b.Sizes) {
		return false
	}
	for i := 0; i < a.Centers.Rows(); i++ {
		for j, v := range a.Centers.DenseRow(i) {
			if math.Float64bits(v) != math.Float64bits(b.Centers.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestLloydMatchesFreshPayloads: serial and distributed Lloyd, whose two
// sweep payloads alternate, agree bit for bit with the loop that allocated
// a fresh payload every sweep, over runs of several sweeps, dense and CSR.
func TestLloydMatchesFreshPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	de, _ := blobs(rng, 6, 30, 4, 1.5)
	for _, x := range []*la.Matrix{de, sparseDrop(rng, de)} {
		seed := Seed(x, 6, rand.New(rand.NewSource(3)))
		got, want := Run(x, seed, 0, 0), lloydRef(nil, x, seed, x.Rows())
		if want.Iters < 3 {
			t.Fatalf("sparse=%v: %d sweeps, want at least 3", x.Sparse(), want.Iters)
		}
		if !sameResult(got, want) {
			t.Fatalf("sparse=%v: serial Lloyd differs from the fresh-payload loop", x.Sparse())
		}
		const p = 3
		per := x.Rows() / p
		run := func(f func(c *mpi.Comm, local *la.Matrix) *Result) []*Result {
			out := make([]*Result, p)
			if err := mpi.NewWorld(p, perfmodel.Hopper(), 7).Run(func(c *mpi.Comm) error {
				out[c.Rank()] = f(c, x.RowRange(c.Rank()*per, (c.Rank()+1)*per))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		gotD := run(func(c *mpi.Comm, local *la.Matrix) *Result { return RunDistributed(c, local, 6, 0, 0) })
		wantD := run(func(c *mpi.Comm, local *la.Matrix) *Result {
			centers := la.NewDense(6, local.Features(), SeedShared(c, local, 6))
			return lloydRef(c, local, centers, c.AllreduceSumInt([]int{local.Rows()})[0])
		})
		for r := range gotD {
			if !sameResult(gotD[r], wantD[r]) {
				t.Fatalf("sparse=%v rank %d: distributed Lloyd differs from the fresh-payload loop", x.Sparse(), r)
			}
		}
		if wantD[0].Iters < 3 {
			t.Fatalf("sparse=%v: %d distributed sweeps, want at least 3", x.Sparse(), wantD[0].Iters)
		}
	}
}
