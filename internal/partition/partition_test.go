package partition

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"casvm/internal/kmeans"
	"casvm/internal/la"
	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
)

// imbalancedBlobs builds clustered data with a globally skewed class
// ratio: cluster c sits at distance sep along axis c%n, and posFrac of all
// samples (concentrated unevenly across clusters) are positive — the
// face-dataset shape that breaks plain FCFS load balance (Table VII).
func imbalancedBlobs(rng *rand.Rand, k, mPer, n int, sep float64) (*la.Matrix, []float64) {
	m := k * mPer
	data := make([]float64, m*n)
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		c := i % k
		for j := 0; j < n; j++ {
			center := 0.0
			if j == c%n {
				center = sep * float64(1+c/n)
			}
			data[i*n+j] = center + 0.5*rng.NormFloat64()
		}
		// Cluster 0 is positive-rich, the rest mostly negative.
		threshold := 0.05
		if c == 0 {
			threshold = 0.5
		}
		if rng.Float64() < threshold {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return la.NewDense(m, n, data), y
}

func checkCover(t *testing.T, assign []int, p, m int) {
	t.Helper()
	if len(assign) != m {
		t.Fatalf("assign len %d want %d", len(assign), m)
	}
	for i, c := range assign {
		if c < 0 || c >= p {
			t.Fatalf("assign[%d]=%d out of range", i, c)
		}
	}
}

func TestFCFSBalancesSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := imbalancedBlobs(rng, 4, 100, 5, 6)
	for _, p := range []int{2, 3, 8} {
		res, err := FCFS(x, y, p, Options{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkCover(t, res.Assign, p, x.Rows())
		capacity := ceilDiv(x.Rows(), p)
		for c, s := range res.Sizes {
			if s > capacity {
				t.Errorf("p=%d node %d holds %d > cap %d", p, c, s, capacity)
			}
		}
		// Fig 5 claim: FCFS is (near-)exactly balanced.
		min, max := res.Sizes[0], res.Sizes[0]
		for _, s := range res.Sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > p {
			t.Errorf("p=%d sizes %v not balanced", p, res.Sizes)
		}
	}
}

func TestFCFSRatioBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := imbalancedBlobs(rng, 4, 200, 5, 6)
	p := 8
	plain, err := FCFS(x, y, p, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := FCFS(x, y, p, Options{RatioBalanced: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	spreadOf := func(res *Result) int {
		pos, _ := ClassCounts(y, res.Assign, p)
		min, max := pos[0], pos[0]
		for _, v := range pos {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return max - min
	}
	// Table VII → VIII: ratio balancing shrinks the per-node positive-count
	// spread to the ⌈mPos/P⌉ rounding slack (at most P−1), versus hundreds
	// for the plain version.
	if rs := spreadOf(ratio); rs > p {
		t.Errorf("ratio-balanced positive spread %d > %d", rs, p)
	}
	if ps, rs := spreadOf(plain), spreadOf(ratio); rs >= ps && ps > 2 {
		t.Errorf("ratio balancing should shrink spread: plain=%d ratio=%d", ps, rs)
	}
	// Total sizes stay balanced too.
	capacity := ceilDiv(x.Rows(), p) + 2
	for _, s := range ratio.Sizes {
		if s > capacity {
			t.Errorf("ratio-balanced node size %d exceeds %d", s, capacity)
		}
	}
}

func TestFCFSRequiresLabelsForRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := la.NewDense(4, 1, []float64{1, 2, 3, 4})
	if _, err := FCFS(x, nil, 2, Options{RatioBalanced: true}, rng); err == nil {
		t.Error("missing labels should fail")
	}
	if _, err := FCFS(x, nil, 0, Options{}, rng); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := FCFS(x, nil, 5, Options{}, rng); err == nil {
		t.Error("p>m should fail")
	}
}

// rankBlock returns rank's contiguous block of per samples of (x, y).
func rankBlock(x *la.Matrix, y []float64, rank, per int) (*la.Matrix, []float64) {
	rows := make([]int, per)
	for k := range rows {
		rows[k] = rank*per + k
	}
	return x.Subset(rows), y[rank*per : (rank+1)*per]
}

// runBKM runs ParallelBKM over p ranks holding contiguous even blocks of
// (x, y) and returns every rank's local assignment and block labels plus
// the global sizes.
func runBKM(t *testing.T, x *la.Matrix, y []float64, p int, opts Options) (assign [][]int, localY [][]float64, sizes []int) {
	t.Helper()
	per := x.Rows() / p
	assign, localY = make([][]int, p), make([][]float64, p)
	w := mpi.NewWorld(p, perfmodel.Hopper(), 3)
	err := w.Run(func(c *mpi.Comm) error {
		lx, ly := rankBlock(x, y, c.Rank(), per)
		res, _, err := ParallelBKM(c, lx, ly, opts)
		if err != nil {
			return err
		}
		assign[c.Rank()], localY[c.Rank()] = res.Assign, ly
		if c.Rank() == 0 {
			sizes = res.Sizes
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return assign, localY, sizes
}

func TestBalancedKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := imbalancedBlobs(rng, 3, 150, 4, 8)
	p := 5
	per := x.Rows() / p
	assign, _, sizes := runBKM(t, x, y, p, Options{})
	// Each rank caps every cluster at ⌈m_local/P⌉ of its own block, which
	// bounds every global cluster by P times that.
	capacity := ceilDiv(per, p)
	total := 0
	for r := range assign {
		checkCover(t, assign[r], p, per)
		for c, s := range kmeans.Sizes(assign[r], p) {
			if s > capacity {
				t.Errorf("rank %d node %d holds %d > cap %d", r, c, s, capacity)
			}
		}
	}
	for _, s := range sizes {
		total += s
	}
	if total != x.Rows() {
		t.Errorf("sizes sum %d", total)
	}
}

func TestBalancedKMeansRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := imbalancedBlobs(rng, 4, 100, 4, 8)
	p := 4
	assign, localY, _ := runBKM(t, x, y, p, Options{RatioBalanced: true})
	for r := range assign {
		pos, neg := ClassCounts(localY[r], assign[r], p)
		mPos, mNeg := 0, 0
		for i := range pos {
			mPos += pos[i]
			mNeg += neg[i]
		}
		capPos, capNeg := ceilDiv(max(mPos, 1), p), ceilDiv(max(mNeg, 1), p)
		for c := 0; c < p; c++ {
			if pos[c] > capPos {
				t.Errorf("rank %d node %d pos=%d > cap %d", r, c, pos[c], capPos)
			}
			if neg[c] > capNeg {
				t.Errorf("rank %d node %d neg=%d > cap %d", r, c, neg[c], capNeg)
			}
		}
	}
}

// Plain K-means — the partitioner of DC-SVM, DC-Filter and CP-SVM — must NOT
// balance two tight clusters of very different size (the Fig 5/Fig 7
// phenomenon CA-SVM fixes).
func TestKMeansPlainUnbalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m1, m2 := 300, 20
	data := make([]float64, 0, (m1+m2)*2)
	for i := 0; i < m1; i++ {
		data = append(data, 0+0.1*rng.NormFloat64(), 0+0.1*rng.NormFloat64())
	}
	for i := 0; i < m2; i++ {
		data = append(data, 10+0.1*rng.NormFloat64(), 10+0.1*rng.NormFloat64())
	}
	x := la.NewDense(m1+m2, 2, data)
	sizes := kmeans.Run(x, kmeans.Seed(x, 2, rng), 0, 0).Sizes
	big, small := sizes[0], sizes[1]
	if big < small {
		big, small = small, big
	}
	if big < 5*small {
		t.Errorf("kmeans should be imbalanced on skewed blobs: %v", sizes)
	}
}

// Property: FCFS covers each sample exactly once and respects the capacity
// ceiling.
func TestPartitionInvariants(t *testing.T) {
	f := func(seed int64, pu, mu uint8) bool {
		p := int(pu)%6 + 2
		m := int(mu)%120 + p + 10
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, m*3)
		y := make([]float64, m)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		for i := range y {
			if rng.Float64() < 0.3 {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		x := la.NewDense(m, 3, data)
		capacity := ceilDiv(m, p)
		res, err := FCFS(x, y, p, Options{}, rng)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(res.Assign) != m {
			return false
		}
		total := 0
		for c, s := range res.Sizes {
			if s > capacity {
				t.Logf("node %d size %d > cap %d (m=%d p=%d)", c, s, capacity, m, p)
				return false
			}
			total += s
		}
		if total != m {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMaterialize(t *testing.T) {
	x := la.NewDense(5, 1, []float64{10, 20, 30, 40, 50})
	y := []float64{1, -1, 1, -1, 1}
	assign := []int{0, 1, 0, 1, 2}
	parts := Materialize(x, y, assign, 3)
	if parts[0].X.Rows() != 2 || parts[0].X.At(1, 0) != 30 || parts[0].Y[1] != 1 {
		t.Errorf("part0 wrong: %+v", parts[0])
	}
	if parts[2].X.Rows() != 1 || parts[2].Index[0] != 4 {
		t.Errorf("part2 wrong: %+v", parts[2])
	}
	if parts[1].Y[0] != -1 || parts[1].Y[1] != -1 {
		t.Errorf("part1 labels: %v", parts[1].Y)
	}
}

func TestParallelFCFS(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := imbalancedBlobs(rng, 4, 64, 4, 6)
	const p = 4
	m := x.Rows()
	per := m / p
	w := mpi.NewWorld(p, perfmodel.Hopper(), 3)
	sizes := make([][]int, p)
	err := w.Run(func(c *mpi.Comm) error {
		localX, localY := rankBlock(x, y, c.Rank(), per)
		res, err := ParallelFCFS(c, localX, localY, Options{})
		if err != nil {
			return err
		}
		sizes[c.Rank()] = res.Sizes
		checkCover(t, res.Assign, p, per)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All ranks agree on the global sizes, which sum to m and are balanced
	// to within p (each rank contributes ±1 slack per center).
	for r := 1; r < p; r++ {
		for j := 0; j < p; j++ {
			if sizes[r][j] != sizes[0][j] {
				t.Fatalf("rank %d sizes %v != rank0 %v", r, sizes[r], sizes[0])
			}
		}
	}
	total := 0
	min, max := sizes[0][0], sizes[0][0]
	for _, s := range sizes[0] {
		total += s
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if total != m {
		t.Errorf("global sizes sum %d want %d", total, m)
	}
	if max-min > p*p {
		t.Errorf("parallel FCFS sizes %v badly imbalanced", sizes[0])
	}
	if w.Stats().TotalBytes() == 0 {
		t.Error("parallel FCFS must communicate")
	}
}

func TestParallelFCFSRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := imbalancedBlobs(rng, 4, 64, 4, 6)
	const p = 4
	per := x.Rows() / p
	w := mpi.NewWorld(p, perfmodel.Hopper(), 3)
	err := w.Run(func(c *mpi.Comm) error {
		localX, localY := rankBlock(x, y, c.Rank(), per)
		res, err := ParallelFCFS(c, localX, localY, Options{RatioBalanced: true})
		if err != nil {
			return err
		}
		// Local per-class spread bounded by the local capacity.
		pos, _ := ClassCounts(localY, res.Assign, p)
		posLocal := 0
		for _, v := range localY {
			if v > 0 {
				posLocal++
			}
		}
		capPos := ceilDiv(max(posLocal, 1), p)
		for j, v := range pos {
			if v > capPos {
				t.Errorf("rank %d center %d pos=%d > cap %d", c.Rank(), j, v, capPos)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClassCounts(t *testing.T) {
	y := []float64{1, -1, 1, 1, -1}
	assign := []int{0, 0, 1, 1, 1}
	pos, neg := ClassCounts(y, assign, 2)
	if pos[0] != 1 || neg[0] != 1 || pos[1] != 2 || neg[1] != 1 {
		t.Errorf("pos=%v neg=%v", pos, neg)
	}
}

// ClassCounts returns (#positive, #negative) per node.
func ClassCounts(y []float64, assign []int, p int) (pos, neg []int) {
	pos = make([]int, p)
	neg = make([]int, p)
	for i, c := range assign {
		if y[i] > 0 {
			pos[c]++
		} else {
			neg[c]++
		}
	}
	return
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

// fcfsStepRef is the scalar FCFS step the capacity walk replaced:
// one unclamped ‖x‖² + ‖c‖² − 2·DotVec per center still below capacity,
// strict-< from +Inf.
func fcfsStepRef(x *la.Matrix, i int, centers *la.Matrix, sizes []int, capacity int) int {
	best, bi := math.Inf(1), -1
	for j := 0; j < centers.Rows(); j++ {
		if sizes[j] >= capacity {
			continue
		}
		d := x.SqNormRow(i) + centers.SqNormRow(j) - 2*x.DotVec(i, centers.DenseRow(j))
		if d < best {
			best, bi = d, j
		}
	}
	return bi
}

// fcfsWalkRef is the sample-order walk over fcfsStepRef, with
// capacity quota(count) for the whole block or, ratio-balancing, for each
// class.
func fcfsWalkRef(x *la.Matrix, y []float64, centers *la.Matrix, ratio bool, quota func(int) int) (assign, sizes []int) {
	m, p := x.Rows(), centers.Rows()
	mPos := 0
	for _, v := range y {
		if v > 0 {
			mPos++
		}
	}
	assign, sizes = make([]int, m), make([]int, p)
	pos, neg := make([]int, p), make([]int, p)
	for i := range m {
		var j int
		switch {
		case !ratio:
			j = fcfsStepRef(x, i, centers, sizes, quota(m))
		case y[i] > 0:
			j = fcfsStepRef(x, i, centers, pos, quota(mPos))
			pos[j]++
		default:
			j = fcfsStepRef(x, i, centers, neg, quota(m-mPos))
			neg[j]++
		}
		sizes[j]++
		assign[i] = j
	}
	return assign, sizes
}

// fcfsCases are the shapes both FCFS equivalence tests run: dense and sparse
// rows, ratio balancing off and on, 287 rows split over 5 centers, or 4 ranks
// of 70 — neither a multiple of la.SqDistEach's 16-row block.
func fcfsCases(rng *rand.Rand) (xs []*la.Matrix, y []float64) {
	x, y := imbalancedBlobs(rng, 7, 41, 5, 6)
	return []*la.Matrix{x, sparseDrop(rng, x)}, y
}

// TestFCFSMatchesScalarWalk holds FCFS to the scalar walk it replaced. The
// clamp at 0 and the masked argmin can only differ from it when two centers
// both come out ≤ 0 for one row, which these blobs never produce.
func TestFCFSMatchesScalarWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs, y := fcfsCases(rng)
	const p = 5
	for _, x := range xs {
		for _, ratio := range []bool{false, true} {
			res, err := FCFS(x, y, p, Options{RatioBalanced: ratio}, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			centers := kmeans.Seed(x, p, rand.New(rand.NewSource(5)))
			assign, sizes := fcfsWalkRef(x, y, centers, ratio, func(n int) int { return ceilDiv(n, p) })
			if !la.Equal(res.Centers, centers, 0) {
				t.Fatalf("sparse=%v ratio=%v: centers are not the seed", x.Sparse(), ratio)
			}
			for i := range assign {
				if res.Assign[i] != assign[i] {
					t.Fatalf("sparse=%v ratio=%v row %d: node %d, scalar walk %d",
						x.Sparse(), ratio, i, res.Assign[i], assign[i])
				}
			}
			for j := range sizes {
				if res.Sizes[j] != sizes[j] {
					t.Fatalf("sparse=%v ratio=%v: sizes %v, scalar walk %v", x.Sparse(), ratio, res.Sizes, sizes)
				}
			}
		}
	}
}

// parallelFCFSRef is ParallelFCFS before the shared primitives: rank 0's
// seed broadcast, the scalar walk at ⌈max(count, 1)/P⌉ per rank, and the
// allreduced centroid rebuild.
func parallelFCFSRef(c *mpi.Comm, local *la.Matrix, y []float64, ratio bool) ([]int, []int, *la.Matrix) {
	p, n := c.Size(), local.Features()
	var data []float64
	if c.Rank() == 0 {
		k := min(p, local.Rows())
		seed := kmeans.Seed(local, k, c.RNG())
		for i := 0; i < k; i++ {
			data = append(data, seed.DenseRow(i)...)
		}
		for len(data) < p*n {
			data = append(data, data[:n]...)
		}
	}
	centers := la.NewDense(p, n, c.BcastF64(0, data))
	assign, sizes := fcfsWalkRef(local, y, centers, ratio, func(m int) int { return ceilDiv(max(m, 1), p) })
	sizes = c.AllreduceSumInt(sizes)
	sums := make([]float64, p*n)
	buf := make([]float64, n)
	for i, j := range assign {
		la.Axpy(1, local.RowInto(i, buf), sums[j*n:(j+1)*n])
	}
	sums = c.AllreduceSum(sums)
	out := make([]float64, p*n)
	for j := 0; j < p; j++ {
		if sizes[j] == 0 {
			copy(out[j*n:], centers.DenseRow(j))
			continue
		}
		inv := 1 / float64(sizes[j])
		for k := 0; k < n; k++ {
			out[j*n+k] = sums[j*n+k] * inv
		}
	}
	return assign, sizes, la.NewDense(p, n, out)
}

// TestParallelFCFSMatchesScalarWalk runs ParallelFCFS and its scalar
// reference in two worlds with the same seed: every rank's assignment, the
// global sizes and the rebuilt centers must agree bit for bit.
func TestParallelFCFSMatchesScalarWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	xs, y := fcfsCases(rng)
	const p, per = 4, 70
	type out struct {
		assign, sizes []int
		centers       *la.Matrix
	}
	for _, x := range xs {
		for _, ratio := range []bool{false, true} {
			run := func(f func(c *mpi.Comm, lx *la.Matrix, ly []float64) out) []out {
				outs := make([]out, p)
				err := mpi.NewWorld(p, perfmodel.Hopper(), 3).Run(func(c *mpi.Comm) error {
					lx, ly := rankBlock(x, y, c.Rank(), per)
					outs[c.Rank()] = f(c, lx, ly)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return outs
			}
			got := run(func(c *mpi.Comm, lx *la.Matrix, ly []float64) out {
				res, err := ParallelFCFS(c, lx, ly, Options{RatioBalanced: ratio})
				if err != nil {
					t.Error(err)
					return out{}
				}
				return out{res.Assign, res.Sizes, res.Centers}
			})
			want := run(func(c *mpi.Comm, lx *la.Matrix, ly []float64) out {
				a, s, ct := parallelFCFSRef(c, lx, ly, ratio)
				return out{a, s, ct}
			})
			for r := range p {
				g, w := got[r], want[r]
				for i := range w.assign {
					if g.assign[i] != w.assign[i] {
						t.Fatalf("sparse=%v ratio=%v rank %d row %d: node %d, scalar walk %d",
							x.Sparse(), ratio, r, i, g.assign[i], w.assign[i])
					}
				}
				for j := range w.sizes {
					if g.sizes[j] != w.sizes[j] {
						t.Fatalf("sparse=%v ratio=%v rank %d: sizes %v, want %v", x.Sparse(), ratio, r, g.sizes, w.sizes)
					}
				}
				if !la.Equal(g.centers, w.centers, 0) {
					t.Fatalf("sparse=%v ratio=%v rank %d: centers differ from the scalar rebuild", x.Sparse(), ratio, r)
				}
			}
		}
	}
}

// TestFCFSTiesLowestIndex: rows equal to a center, against centers [a b b a],
// go to the lowest-index tied center that still has room. The distance is
// clamped at 0, which is new for FCFS: it can change an argmin only when two
// centers with different values both come out ≤ 0 for the same row, and then
// the lower index wins.
func TestFCFSTiesLowestIndex(t *testing.T) {
	a, b := []float64{0.3, -1.7, 2.2}, []float64{4.1, 0.6, -0.9}
	var cdata, xdata []float64
	for _, r := range [][]float64{a, b, b, a} {
		cdata = append(cdata, r...)
	}
	for i := 0; i < 4; i++ {
		xdata = append(append(xdata, b...), a...)
	}
	res := &Result{Centers: la.NewDense(4, 3, cdata)}
	walk(la.NewDense(8, 3, xdata), nil, false, res) // capacity ⌈8/4⌉ = 2
	want := []int{1, 0, 1, 0, 2, 3, 2, 3}
	for i, j := range want {
		if res.Assign[i] != j {
			t.Fatalf("assign %v, want %v", res.Assign, want)
		}
	}
}

// TestParallelFCFSEmptyClusterKeepsSeed: rank 0 holds one row, so all five
// seeds are that row, every distance ties, and the walk fills the lowest
// centers first: with blocks of at most two rows, centers 2–4 end up empty
// on every rank. Their centers keep the seed row bit for bit (its −0 entries
// included), and every center is bitwise what parallelFCFSRef's rebuild
// from fresh sums gives, dense and CSR.
func TestParallelFCFSEmptyClusterKeepsSeed(t *testing.T) {
	const p = 5
	per := []int{1, 2, 1, 2, 1}
	negZero := math.Copysign(0, -1)
	rows := [][]float64{{negZero, 1.5, -2.25, negZero}, {0.5, negZero, 3, 1}, {-1, 2, 0.25, 7}}
	var data []float64
	for r, k := range per {
		for i := 0; i < k; i++ {
			data = append(data, rows[(r+i)%len(rows)]...)
		}
	}
	dense := la.NewDense(len(data)/4, 4, data)
	var rp, ix []int32
	var vx []float64
	rp = append(rp, 0)
	for i := 0; i < dense.Rows(); i++ {
		for j, v := range dense.DenseRow(i) {
			if v != 0 || math.Signbit(v) {
				ix, vx = append(ix, int32(j)), append(vx, v)
			}
		}
		rp = append(rp, int32(len(ix)))
	}
	sparse := la.NewSparse(dense.Rows(), 4, rp, ix, vx)
	for _, x := range []*la.Matrix{dense, sparse} {
		blocks := make([]*la.Matrix, p)
		for r, lo := 0, 0; r < p; r++ {
			blocks[r] = x.RowRange(lo, lo+per[r])
			lo += per[r]
		}
		got := make([]*la.Matrix, p)
		if err := mpi.NewWorld(p, perfmodel.Hopper(), 3).Run(func(c *mpi.Comm) error {
			res, err := ParallelFCFS(c, blocks[c.Rank()], nil, Options{})
			if err == nil {
				got[c.Rank()] = res.Centers
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		var want *la.Matrix
		var sizes []int
		if err := mpi.NewWorld(p, perfmodel.Hopper(), 3).Run(func(c *mpi.Comm) error {
			if _, sz, ct := parallelFCFSRef(c, blocks[c.Rank()], nil, false); c.Rank() == 0 {
				want, sizes = ct, sz
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sizes) != "[5 2 0 0 0]" {
			t.Fatalf("sparse=%v: global sizes %v, want [5 2 0 0 0]", x.Sparse(), sizes)
		}
		for r, g := range got {
			for j := 0; j < p; j++ {
				for k, v := range g.DenseRow(j) {
					if math.Float64bits(v) != math.Float64bits(want.At(j, k)) {
						t.Fatalf("sparse=%v rank %d center %d[%d] = %v, old rebuild %v", x.Sparse(), r, j, k, v, want.At(j, k))
					}
					if sizes[j] == 0 && math.Float64bits(v) != math.Float64bits(rows[0][k]) {
						t.Fatalf("sparse=%v rank %d empty center %d[%d] = %v, seed %v", x.Sparse(), r, j, k, v, rows[0][k])
					}
				}
			}
		}
	}
}
