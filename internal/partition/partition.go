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

// checkLabels refuses ratio balancing without one label per sample.
func checkLabels(opts Options, y []float64, m int) error {
	if opts.RatioBalanced && len(y) != m {
		return fmt.Errorf("partition: ratio balancing needs %d labels, got %d", m, len(y))
	}
	return nil
}

// classes sorts m samples into the classes capacities are counted over: with
// ratio balancing class 0 holds the positive samples and class 1 the rest,
// otherwise every sample is class 1. Each class's per-center capacity is
// ⌈max(count, 1)/p⌉, so at least one center always has room.
func classes(y []float64, m, p int, ratio bool) (class func(i int) int, caps [2]int) {
	class = func(i int) int {
		if ratio && y[i] > 0 {
			return 0
		}
		return 1
	}
	for i := range m {
		caps[class(i)]++
	}
	for k, n := range caps {
		caps[k] = ceilDiv(max(n, 1), p)
	}
	return class, caps
}

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
	if err := checkLabels(opts, y, m); err != nil {
		return nil, err
	}
	res := &Result{Centers: kmeans.Seed(x, p, rng)}
	walk(x, y, opts.RatioBalanced, res)
	return res, nil
}

// walk is FCFS's capacity walk (Alg 3 lines 6–14; Alg 4 lines 8–17 on a
// rank's block): in sample order, each row of x goes to the nearest of
// res.Centers still below its class's capacity (classes), the lowest index
// on a tie. Distances come a block at a time from la.SqDistEach, since
// capacities never change a distance. It fills Assign and Sizes and charges
// 2·m·P·n flops.
func walk(x *la.Matrix, y []float64, ratio bool, res *Result) {
	m, p := x.Rows(), res.Centers.Rows()
	class, caps := classes(y, m, p, ratio)
	sizes := [2][]int{make([]int, p), make([]int, p)}
	res.Assign, res.Sizes = make([]int, m), make([]int, p)
	la.SqDistEach(x, res.Centers, func(i int, d []float64) {
		k := class(i)
		j := -1
		for c, dc := range d {
			if sizes[k][c] < caps[k] && (j < 0 || dc < d[j]) {
				j = c
			}
		}
		sizes[k][j]++
		res.Sizes[j]++
		res.Assign[i] = j
	})
	res.Flops += float64(2 * m * p * x.Features())
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
