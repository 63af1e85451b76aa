package partition

import (
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
		for c, s := range sizesOf(assign[r], p) {
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
