// Package partition implements the data-partitioning algorithms of the
// paper's §IV: First-Come-First-Served partitioning (Alg 3) and its
// distributed form (Alg 4), distributed Balanced K-means (Alg 5), and the
// positive/negative ratio-balanced variants that turn balanced data into
// balanced load (Tables VI–IX). RA-CA needs no partitioner: the resident
// block is the random partition (internal/core).
//
// Every partitioner produces the same artefacts: an assignment of samples
// to P clusters (one per machine node), the cluster centers used to route
// prediction queries, and the cluster sizes.
package partition

import (
	"fmt"
	"math"
	"math/rand"

	"casvm/internal/kmeans"
	"casvm/internal/la"
)

// Result is a completed partitioning.
type Result struct {
	Assign  []int      // Assign[i] = node of sample i
	Centers *la.Matrix // P×n dense centers (CT in the paper)
	Sizes   []int      // samples per node
	Flops   float64    // computation cost, for virtual-time charging
}

// Options configures the class-aware behaviour shared by FCFS and BKM.
type Options struct {
	// RatioBalanced applies the §IV-B1 refinement: balance the number of
	// positive and negative samples per node separately, so the per-node
	// pos/neg ratio matches the global one (Table VIII) and the SMO load
	// balances (Table IX). Requires labels.
	RatioBalanced bool
}

// ceilDiv returns ⌈a/b⌉.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// FCFS implements Algorithm 3: greedy nearest-center assignment where a
// node stops accepting samples once it holds ⌈m/P⌉ (per class when
// ratio-balancing). y may be nil when opts.RatioBalanced is false. Centers
// are the seed centers: Alg 3's optional recomputation (lines 15–21) is the
// distributed form's, whose centers route queries.
func FCFS(x *la.Matrix, y []float64, p int, opts Options, rng *rand.Rand) (*Result, error) {
	m := x.Rows()
	if p < 1 || p > m {
		return nil, fmt.Errorf("partition: FCFS with p=%d, m=%d", p, m)
	}
	if opts.RatioBalanced && len(y) != m {
		return nil, fmt.Errorf("partition: ratio balancing needs %d labels, got %d", m, len(y))
	}
	centers := kmeans.Seed(x, p, rng)
	res := &Result{
		Assign:  make([]int, m),
		Centers: centers,
		Sizes:   make([]int, p),
	}
	if opts.RatioBalanced {
		mPos := 0
		for _, v := range y {
			if v > 0 {
				mPos++
			}
		}
		capPos := ceilDiv(mPos, p)
		capNeg := ceilDiv(m-mPos, p)
		posSizes := make([]int, p)
		negSizes := make([]int, p)
		for i := 0; i < m; i++ {
			var sizes []int
			var capacity int
			if y[i] > 0 {
				sizes, capacity = posSizes, capPos
			} else {
				sizes, capacity = negSizes, capNeg
			}
			j := nearestUnderloaded(x, i, centers, sizes, capacity)
			sizes[j]++
			res.Sizes[j]++
			res.Assign[i] = j
		}
		res.Flops += float64(2 * m * p * x.Features())
	} else {
		capacity := ceilDiv(m, p)
		for i := 0; i < m; i++ {
			j := nearestUnderloaded(x, i, centers, res.Sizes, capacity)
			res.Sizes[j]++
			res.Assign[i] = j
		}
		res.Flops += float64(2 * m * p * x.Features())
	}
	return res, nil
}

// nearestUnderloaded returns the closest center whose size is still below
// capacity (Alg 3 lines 8–12). At least one center always qualifies because
// capacity is ⌈quota⌉.
func nearestUnderloaded(x *la.Matrix, i int, centers *la.Matrix, sizes []int, capacity int) int {
	centers.EnsureNorms()
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
	if bi < 0 {
		panic("partition: no underloaded center (capacity accounting bug)")
	}
	return bi
}

// rebalance moves members of the sub-population selected by want from
// overloaded to underloaded clusters (Alg 5 lines 9–27), where load counts
// only that sub-population.
func rebalance(res *Result, dist []float64, p int, want func(i int) bool, capacity int) {
	m := len(res.Assign)
	sizes := make([]int, p)
	for i, c := range res.Assign {
		if want(i) {
			sizes[c]++
		}
	}
	for j := 0; j < p; j++ {
		for sizes[j] > capacity {
			// Farthest selected member of cluster j (lines 14–17).
			maxDist, maxInd := -1.0, -1
			for i := 0; i < m; i++ {
				if res.Assign[i] == j && want(i) && dist[i*p+j] > maxDist {
					maxDist, maxInd = dist[i*p+j], i
				}
			}
			// Closest underloaded cluster for it (lines 18–24).
			minDist, minInd := math.Inf(1), -1
			for k := 0; k < p; k++ {
				if k != j && sizes[k] < capacity && dist[maxInd*p+k] < minDist {
					minDist, minInd = dist[maxInd*p+k], k
				}
			}
			if minInd < 0 {
				// Every other cluster full for this class: capacity is a
				// ceiling, so this can only happen transiently; stop.
				return
			}
			res.Assign[maxInd] = minInd
			sizes[j]--
			sizes[minInd]++
			res.Flops += float64(m + p)
		}
	}
}

// Part is one node's share of a partitioned dataset.
type Part struct {
	X     *la.Matrix
	Y     []float64
	Index []int // original sample indices, in part order
}

// Materialize splits (x, y) into P parts according to assign.
func Materialize(x *la.Matrix, y []float64, assign []int, p int) []Part {
	idx := make([][]int, p)
	for i, c := range assign {
		idx[c] = append(idx[c], i)
	}
	parts := make([]Part, p)
	for c := 0; c < p; c++ {
		parts[c].Index = idx[c]
		parts[c].X = x.Subset(idx[c])
		parts[c].Y = make([]float64, len(idx[c]))
		for k, i := range idx[c] {
			parts[c].Y[k] = y[i]
		}
	}
	return parts
}
