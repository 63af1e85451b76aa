package partition

import (
	"fmt"

	"casvm/internal/kmeans"
	"casvm/internal/la"
	"casvm/internal/mpi"
)

// ParallelFCFS implements Algorithm 4: the divide-and-conquer parallel form
// of FCFS partitioning. Each rank holds a local block of the data; rank 0
// seeds the P centers and broadcasts them; each rank then runs FCFS on its
// own block with per-center capacity ⌈m_local/P⌉ (per class when
// ratio-balancing), converting the m → P×m/P problem into P independent
// m/P → P×m/P² problems; finally sizes and centers are combined with
// allreduce sums (Alg 4 lines 23–27).
//
// The returned Result is rank-local in Assign (the node chosen for each
// local sample) and global in Centers and Sizes. Computation and
// communication are charged to the rank's virtual clock.
func ParallelFCFS(c *mpi.Comm, local *la.Matrix, y []float64, opts Options) (*Result, error) {
	p := c.Size()
	pm := local.Rows()
	if opts.RatioBalanced && len(y) != pm {
		return nil, fmt.Errorf("partition: ratio balancing needs %d labels, got %d", pm, len(y))
	}
	n := local.Features()

	// Lines 1–5: rank 0 seeds centers from its block and broadcasts.
	var centerData []float64
	if c.Rank() == 0 {
		if pm < 1 {
			return nil, fmt.Errorf("partition: rank 0 has no samples to seed from")
		}
		k := p
		if k > pm {
			k = pm
		}
		seed := kmeans.Seed(local, k, c.RNG())
		centerData = make([]float64, 0, p*n)
		for i := 0; i < k; i++ {
			centerData = append(centerData, seed.DenseRow(i)...)
		}
		for len(centerData) < p*n {
			centerData = append(centerData, centerData[:n]...)
		}
	}
	centerData = c.BcastF64(0, centerData)
	centers := la.NewDense(p, n, centerData)

	res := &Result{
		Assign:  make([]int, pm),
		Centers: centers,
		Sizes:   make([]int, p),
	}

	// Lines 8–17: local FCFS against the shared centers.
	if opts.RatioBalanced {
		posLocal := 0
		for _, v := range y {
			if v > 0 {
				posLocal++
			}
		}
		capPos := ceilDiv(max(posLocal, 1), p)
		capNeg := ceilDiv(max(pm-posLocal, 1), p)
		posSizes := make([]int, p)
		negSizes := make([]int, p)
		for i := 0; i < pm; i++ {
			var sizes []int
			var capacity int
			if y[i] > 0 {
				sizes, capacity = posSizes, capPos
			} else {
				sizes, capacity = negSizes, capNeg
			}
			j := nearestUnderloaded(local, i, centers, sizes, capacity)
			sizes[j]++
			res.Sizes[j]++
			res.Assign[i] = j
		}
	} else {
		capacity := ceilDiv(max(pm, 1), p)
		for i := 0; i < pm; i++ {
			j := nearestUnderloaded(local, i, centers, res.Sizes, capacity)
			res.Sizes[j]++
			res.Assign[i] = j
		}
	}
	flops := float64(2 * pm * p * n)
	res.Flops += flops
	c.Charge(flops)

	// Lines 18–27: recompute global sizes and centers with allreduce.
	res.Sizes = c.AllreduceSumInt(res.Sizes)
	sums := make([]float64, p*n)
	for i := 0; i < pm; i++ {
		dst := sums[res.Assign[i]*n : (res.Assign[i]+1)*n]
		if local.Sparse() {
			ix, vx := local.SparseRow(i)
			for k, j := range ix {
				dst[j] += vx[k]
			}
		} else {
			for j, v := range local.DenseRow(i) {
				dst[j] += v
			}
		}
	}
	c.Charge(float64(local.NNZ()))
	sums = c.AllreduceSum(sums)
	data := make([]float64, p*n)
	for j := 0; j < p; j++ {
		dst := data[j*n : (j+1)*n]
		if res.Sizes[j] == 0 {
			copy(dst, centers.DenseRow(j))
			continue
		}
		inv := 1 / float64(res.Sizes[j])
		for t := range dst {
			dst[t] = sums[j*n+t] * inv
		}
	}
	res.Centers = la.NewDense(p, n, data)
	return res, nil
}

// ParallelBKM is the distributed balanced-K-means partitioner of BKM-CA:
// distributed K-means (shared global centers) followed by the same
// divide-and-conquer trick as Alg 4 — each rank rebalances its own block
// against per-rank capacities ⌈m_local/P⌉ (per class when ratio-balancing),
// which bounds every global cluster by ~⌈m/P⌉ without further
// communication. Returns the rank-local result (global Centers) and the
// K-means sweep count.
func ParallelBKM(c *mpi.Comm, local *la.Matrix, y []float64, opts Options) (*Result, int, error) {
	p := c.Size()
	pm := local.Rows()
	if opts.RatioBalanced && len(y) != pm {
		return nil, 0, fmt.Errorf("partition: ratio balancing needs %d labels, got %d", pm, len(y))
	}
	km := kmeans.RunDistributed(c, local, p, 0, 0)
	res := &Result{
		Assign:  append([]int(nil), km.Assign...),
		Centers: km.Centers,
		Flops:   km.Flops,
	}
	// Local sample-to-center distance matrix (Alg 5 lines 6–8).
	dist := make([]float64, pm*p)
	res.Centers.EnsureNorms()
	for i := 0; i < pm; i++ {
		for j := 0; j < p; j++ {
			d := local.SqNormRow(i) + res.Centers.SqNormRow(j) - 2*local.DotVec(i, res.Centers.DenseRow(j))
			if d < 0 {
				d = 0
			}
			dist[i*p+j] = d
		}
	}
	flops := float64(2 * pm * p * local.Features())
	res.Flops += flops
	c.Charge(flops)

	if opts.RatioBalanced {
		posLocal := 0
		for _, v := range y {
			if v > 0 {
				posLocal++
			}
		}
		rebalance(res, dist, p, func(i int) bool { return y[i] > 0 }, ceilDiv(max(posLocal, 1), p))
		rebalance(res, dist, p, func(i int) bool { return y[i] <= 0 }, ceilDiv(max(pm-posLocal, 1), p))
	} else {
		rebalance(res, dist, p, func(int) bool { return true }, ceilDiv(max(pm, 1), p))
	}
	res.Sizes = c.AllreduceSumInt(sizesOf(res.Assign, p))
	return res, km.Iters, nil
}

func sizesOf(assign []int, p int) []int {
	sizes := make([]int, p)
	for _, c := range assign {
		sizes[c]++
	}
	return sizes
}
