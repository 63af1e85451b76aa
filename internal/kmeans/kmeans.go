// Package kmeans implements Lloyd's K-means clustering (Alg 2 of the
// paper), in both a serial form and the distributed allreduce form used by
// DC-SVM, DC-Filter, CP-SVM and BKM-CA (equivalent to Liao's parallel
// K-means, which the paper's implementation matches).
package kmeans

import (
	"fmt"
	"math/rand"

	"casvm/internal/la"
	"casvm/internal/mpi"
)

// DefaultThreshold is the convergence threshold on the fraction of samples
// that changed cluster in one sweep (Alg 2 step 7).
const DefaultThreshold = 1e-3

// DefaultMaxIter caps the number of Lloyd sweeps.
const DefaultMaxIter = 100

// Result describes a clustering.
type Result struct {
	Assign  []int      // Assign[i] = cluster of sample i
	Centers *la.Matrix // k×n dense matrix of centroids
	Sizes   []int      // samples per cluster
	Iters   int        // Lloyd sweeps executed
	Flops   float64    // computation performed (for virtual-time charging)
}

// Seed picks k distinct random rows of x as initial centers (densified).
func Seed(x *la.Matrix, k int, rng *rand.Rand) *la.Matrix {
	if k > x.Rows() {
		panic(fmt.Sprintf("kmeans: k=%d > m=%d", k, x.Rows()))
	}
	return la.NewDense(k, x.Features(), seedRows(x, k, k, rng))
}

// seedRows returns k densified rows, row-major: s ≤ x.Rows() distinct random
// rows of x, then copies of the first (zeros when s is 0).
func seedRows(x *la.Matrix, s, k int, rng *rand.Rand) []float64 {
	n := x.Features()
	data := make([]float64, k*n)
	for c, i := range rng.Perm(x.Rows())[:s] {
		x.RowInto(i, data[c*n:])
	}
	for c := s; c < k && s > 0; c++ {
		copy(data[c*n:], data[:n])
	}
	return data
}

// SeedShared is the distributed seeding step (Alg 4 lines 1–5): rank 0
// seeds k centers from its block, repeating the first when the block holds
// fewer than k rows, and broadcasts them, so every rank returns the same
// k×n centers, row-major, in storage of its own.
func SeedShared(c *mpi.Comm, x *la.Matrix, k int) []float64 {
	var data []float64
	if c.Rank() == 0 {
		data = seedRows(x, min(k, x.Rows()), k, c.RNG())
	}
	return c.BcastF64(0, data)
}

// AssignAll maps every row of x to its nearest center (Euclidean, la.ArgMin
// over la.SqDistEach), writing into assign and returning (changed count,
// flops).
func AssignAll(x *la.Matrix, centers *la.Matrix, assign []int) (int, float64) {
	changed := 0
	la.SqDistEach(x, centers, func(i int, d []float64) {
		if c := la.ArgMin(d); assign[i] != c {
			assign[i] = c
			changed++
		}
	})
	return changed, float64(2 * x.Rows() * centers.Rows() * x.Features())
}

// Accumulate adds every row of x into its cluster's row of sums (k×n, flat):
// the centroid numerators of Alg 2 and Alg 4 lines 18–22.
func Accumulate(x *la.Matrix, assign []int, sums []float64) {
	n := x.Features()
	for i, c := range assign {
		dst := sums[c*n : (c+1)*n]
		if x.Sparse() {
			ix, vx := x.SparseRow(i)
			for kk, j := range ix {
				dst[j] += vx[kk]
			}
		} else {
			for j, v := range x.DenseRow(i) {
				dst[j] += v
			}
		}
	}
}

// Centroids turns per-cluster sums (k×n, flat) into the k×n centers in
// place: each row divided by its cluster's count, and an empty cluster keeps
// its row of prev, so no centroid is NaN.
func Centroids[T int | float64](prev *la.Matrix, sums []float64, counts []T) *la.Matrix {
	n := prev.Features()
	for c, cnt := range counts {
		dst := sums[c*n : (c+1)*n]
		if cnt == 0 {
			copy(dst, prev.DenseRow(c))
			continue
		}
		inv := 1 / float64(cnt)
		for j := range dst {
			dst[j] *= inv
		}
	}
	return la.NewDense(len(counts), n, sums[:len(counts)*n])
}

// Sizes counts the samples assigned to each of k clusters.
func Sizes(assign []int, k int) []int {
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	return sizes
}

// Run executes serial Lloyd K-means from the given initial centers until
// fewer than threshold·m samples change cluster, or maxIter sweeps.
// threshold ≤ 0 and maxIter ≤ 0 select the defaults.
func Run(x *la.Matrix, centers *la.Matrix, threshold float64, maxIter int) *Result {
	return lloyd(nil, x, centers, x.Rows(), threshold, maxIter)
}

// RunDistributed executes K-means over the ranks of c: each rank holds a
// local block x, rank 0 seeds k centers from its block and broadcasts them,
// and every sweep allreduces the partial sums, counts and change counter.
// The returned Result is local: Assign/Sizes describe the local block while
// Centers and Iters are global. Computation and communication are charged
// to the rank's virtual clock.
func RunDistributed(c *mpi.Comm, x *la.Matrix, k int, threshold float64, maxIter int) *Result {
	centers := la.NewDense(k, x.Features(), SeedShared(c, x, k))
	total := c.AllreduceSumInt([]int{x.Rows()})[0]
	return lloyd(c, x, centers, total, threshold, maxIter)
}

// lloyd runs Lloyd sweeps from centers until at most threshold·total samples
// change cluster, or maxIter sweeps. With a communicator every sweep sums
// its [sums | counts | changed] payload over the ranks in one allreduce and
// charges its work to the rank's clock, and Flops counts the assignments
// only; serially Flops counts the accumulation too.
func lloyd(c *mpi.Comm, x *la.Matrix, centers *la.Matrix, total int, threshold float64, maxIter int) *Result {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	k, n := centers.Rows(), x.Features()
	assign := make([]int, x.Rows())
	for i := range assign {
		assign[i] = -1
	}
	// Two payloads alternate: a sweep's centers live in its payload, and
	// Centroids reads them while the next sweep fills the other.
	bufs := [2][]float64{make([]float64, k*n+k+1), make([]float64, k*n+k+1)}
	res := &Result{Assign: assign}
	for res.Iters < maxIter {
		changed, fl := AssignAll(x, centers, assign)
		res.Flops += fl
		payload := bufs[res.Iters%2]
		clear(payload)
		res.Iters++
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
		if payload[k*n+k]/float64(total) <= threshold {
			break
		}
	}
	res.Centers = centers
	res.Sizes = Sizes(assign, k)
	return res
}
