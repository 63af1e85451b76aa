// Package kmeans implements Lloyd's K-means clustering (Alg 2 of the
// paper), in both a serial form and the distributed allreduce form used by
// DC-SVM, DC-Filter, CP-SVM and BKM-CA (equivalent to Liao's parallel
// K-means, which the paper's implementation matches).
package kmeans

import (
	"fmt"
	"math"
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
	m := x.Rows()
	if k > m {
		panic(fmt.Sprintf("kmeans: k=%d > m=%d", k, m))
	}
	perm := rng.Perm(m)[:k]
	data := make([]float64, k*x.Features())
	buf := make([]float64, x.Features())
	for c, i := range perm {
		copy(data[c*x.Features():(c+1)*x.Features()], x.RowInto(i, buf))
	}
	return la.NewDense(k, x.Features(), data)
}

// AssignAll maps every row of x to its nearest center (Euclidean), writing
// into assign and returning (changed count, flops).
func AssignAll(x *la.Matrix, centers *la.Matrix, assign []int) (int, float64) {
	m, k := x.Rows(), centers.Rows()
	centers.EnsureNorms()
	changed := 0
	for i := 0; i < m; i++ {
		best, bi := math.Inf(1), 0
		for c := 0; c < k; c++ {
			d := distRowCenter(x, i, centers, c)
			if d < best {
				best, bi = d, c
			}
		}
		if assign[i] != bi {
			assign[i] = bi
			changed++
		}
	}
	return changed, float64(2 * m * k * x.Features())
}

// distRowCenter computes ‖x_i − center_c‖² using cached norms, so sparse
// rows cost O(nnz) rather than O(n).
func distRowCenter(x *la.Matrix, i int, centers *la.Matrix, c int) float64 {
	d := x.SqNormRow(i) + centers.SqNormRow(c) - 2*x.DotVec(i, centers.DenseRow(c))
	if d < 0 {
		d = 0
	}
	return d
}

// accumulate sums assigned rows into sums (k×n flat) and counts.
func accumulate(x *la.Matrix, assign []int, k int, sums []float64, counts []float64) {
	n := x.Features()
	for i := 0; i < x.Rows(); i++ {
		c := assign[i]
		dst := sums[c*n : (c+1)*n]
		if x.Sparse() {
			ix, vx := x.SparseRow(i)
			for kk, j := range ix {
				dst[j] += vx[kk]
			}
		} else {
			row := x.DenseRow(i)
			for j, v := range row {
				dst[j] += v
			}
		}
		counts[c]++
	}
}

// rebuildCenters divides sums by counts; empty clusters keep their previous
// center to avoid NaN centroids.
func rebuildCenters(prev *la.Matrix, sums []float64, counts []float64) *la.Matrix {
	k, n := prev.Rows(), prev.Features()
	data := make([]float64, k*n)
	for c := 0; c < k; c++ {
		dst := data[c*n : (c+1)*n]
		if counts[c] == 0 {
			copy(dst, prev.DenseRow(c))
			continue
		}
		inv := 1 / counts[c]
		src := sums[c*n : (c+1)*n]
		for j := range dst {
			dst[j] = src[j] * inv
		}
	}
	return la.NewDense(k, n, data)
}

// Run executes serial Lloyd K-means from the given initial centers until
// fewer than threshold·m samples change cluster, or maxIter sweeps.
// threshold ≤ 0 and maxIter ≤ 0 select the defaults.
func Run(x *la.Matrix, centers *la.Matrix, threshold float64, maxIter int) *Result {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	m := x.Rows()
	k := centers.Rows()
	assign := make([]int, m)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{Assign: assign, Centers: centers}
	for res.Iters < maxIter {
		changed, fl := AssignAll(x, res.Centers, assign)
		res.Flops += fl
		res.Iters++
		sums := make([]float64, k*x.Features())
		counts := make([]float64, k)
		accumulate(x, assign, k, sums, counts)
		res.Flops += float64(x.NNZ())
		res.Centers = rebuildCenters(res.Centers, sums, counts)
		if float64(changed)/float64(m) <= threshold {
			break
		}
	}
	res.Sizes = make([]int, k)
	for _, c := range assign {
		res.Sizes[c]++
	}
	return res
}

// RunDistributed executes K-means over the ranks of c: each rank holds a
// local block x, rank 0 seeds k centers from its block and broadcasts them,
// and every sweep allreduces the partial sums, counts and change counter.
// The returned Result is local: Assign/Sizes describe the local block while
// Centers and Iters are global. Computation and communication are charged
// to the rank's virtual clock.
func RunDistributed(c *mpi.Comm, x *la.Matrix, k int, threshold float64, maxIter int) *Result {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	n := x.Features()
	var centerData []float64
	if c.Rank() == 0 {
		centerData = make([]float64, 0, k*n)
		seed := Seed(x, min(k, x.Rows()), c.RNG())
		for i := 0; i < seed.Rows(); i++ {
			centerData = append(centerData, seed.DenseRow(i)...)
		}
		// If rank 0 has fewer rows than k (tiny blocks), repeat rows.
		for len(centerData) < k*n {
			centerData = append(centerData, centerData[:n]...)
		}
	}
	centerData = c.BcastF64(0, centerData)
	centers := la.NewDense(k, n, centerData)

	totalM := c.AllreduceSumInt([]int{x.Rows()})[0]
	assign := make([]int, x.Rows())
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{Assign: assign}
	for res.Iters < maxIter {
		changed, fl := AssignAll(x, centers, assign)
		c.Charge(fl)
		res.Flops += fl
		res.Iters++
		sums := make([]float64, k*n)
		counts := make([]float64, k)
		accumulate(x, assign, k, sums, counts)
		c.Charge(float64(x.NNZ()))
		// One fused allreduce: [sums | counts | changed].
		payload := make([]float64, 0, k*n+k+1)
		payload = append(payload, sums...)
		payload = append(payload, counts...)
		payload = append(payload, float64(changed))
		payload = c.AllreduceSum(payload)
		centers = rebuildCenters(centers, payload[:k*n], payload[k*n:k*n+k])
		globalChanged := payload[k*n+k]
		if globalChanged/float64(totalM) <= threshold {
			break
		}
	}
	res.Centers = centers
	res.Sizes = make([]int, k)
	for _, cc := range assign {
		res.Sizes[cc]++
	}
	return res
}
