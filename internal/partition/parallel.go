package partition

import (
	"fmt"
	"math"

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
	if err := checkLabels(opts, y, local.Rows()); err != nil {
		return nil, err
	}
	if c.Rank() == 0 && local.Rows() < 1 {
		return nil, fmt.Errorf("partition: rank 0 has no samples to seed from")
	}
	// Lines 1–17: shared seed centers, then local FCFS against them.
	p, n := c.Size(), local.Features()
	seeds := kmeans.SeedShared(c, local, p)
	res := &Result{Centers: la.NewDense(p, n, seeds)}
	walk(local, y, opts.RatioBalanced, res)
	c.Charge(res.Flops)

	// Lines 18–27: recompute global sizes and centers with allreduce. The
	// seeds are dead once walk has assigned, so the sums accumulate into
	// their storage. A globally empty cluster keeps its seed row, as
	// Centroids keeps a previous center: rank 0 contributes the row and
	// every other rank −0, which adds to any value without changing a bit.
	res.Sizes = c.AllreduceSumInt(res.Sizes)
	for j, size := range res.Sizes {
		switch row := seeds[j*n : (j+1)*n]; {
		case size > 0:
			clear(row)
		case c.Rank() > 0:
			la.Fill(row, math.Copysign(0, -1))
		}
	}
	kmeans.Accumulate(local, res.Assign, seeds)
	c.Charge(float64(local.NNZ()))
	// A fresh matrix over the sums: the seed matrix's norm cache is stale.
	res.Centers = kmeans.Centroids(res.Centers, c.AllreduceSum(seeds), res.Sizes)
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
	p, pm := c.Size(), local.Rows()
	if err := checkLabels(opts, y, pm); err != nil {
		return nil, 0, err
	}
	km := kmeans.RunDistributed(c, local, p, 0, 0)
	res := &Result{Assign: km.Assign, Centers: km.Centers, Flops: km.Flops}
	// Local sample-to-center distance matrix (Alg 5 lines 6–8).
	dist := make([]float64, pm*p)
	la.SqDistEach(local, res.Centers, func(i int, d []float64) { copy(dist[i*p:], d) })
	flops := float64(2 * pm * p * local.Features())
	res.Flops += flops
	c.Charge(flops)

	class, caps := classes(y, pm, p, opts.RatioBalanced)
	for k, capacity := range caps {
		rebalance(res, dist, p, func(i int) bool { return class(i) == k }, capacity)
	}
	res.Sizes = c.AllreduceSumInt(kmeans.Sizes(res.Assign, p))
	return res, km.Iters, nil
}
