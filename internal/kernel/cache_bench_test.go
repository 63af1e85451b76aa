package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"casvm/internal/la"
)

var benchRow []float64

// BenchmarkRowCache measures the LRU under the SMO access pattern: a hot
// working set that mostly hits (slot lookup + intrusive-list move) with a
// Zipf-ish tail forcing in-place evictions. The hit path must not allocate.
func BenchmarkRowCache(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := 1024
	dense := denseMat(rng, m, 16)
	run := func(b *testing.B, x *la.Matrix, capacity int) {
		c := NewRowCache(RBF(0.1), x, capacity)
		// Warm the hot set so steady state dominates.
		for i := 0; i < capacity; i++ {
			c.Row(i % m)
		}
		idx := make([]int, 4096)
		for i := range idx {
			if rng.Intn(10) < 9 {
				idx[i] = rng.Intn(capacity) // hit in the hot set
			} else {
				idx[i] = rng.Intn(m) // tail access, may evict
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchRow = c.Row(idx[i%len(idx)])
		}
	}
	b.Run("cap64", func(b *testing.B) { run(b, dense, 64) })
	b.Run("cap512", func(b *testing.B) { run(b, dense, 512) })
	// The sparse workload's shape: a miss is one scattered fill.
	sparse := sparseMat(rng, m, 2048, 0.02)
	b.Run("sparse-cap64", func(b *testing.B) { run(b, sparse, 64) })

	// One rank of casvm-dense: every row of a 450×32 block becomes resident,
	// pair by pair in a seeded order. One op is the whole sweep. At capacity
	// 450 the cache is whole, so the first pair fills all of K; at 449 it
	// fills lazily, nothing evicted until the last pair, so the k-th fill
	// finds about k rows to copy from.
	sweep := func(capacity int) func(b *testing.B) {
		return func(b *testing.B) {
			x := denseMat(rng, 450, 32)
			order := rng.Perm(450)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := NewRowCache(RBF(0.1), x, capacity)
				b.StartTimer()
				for k := 0; k < len(order); k += 2 {
					c.PrefetchPair(order[k], order[k+1])
				}
				b.StopTimer()
				c.Release()
				b.StartTimer()
			}
		}
	}
	// The whole fill of one FCFS block of casvm-sparse's shape: 188 CSR rows
	// of 40 stored entries over 2,048 features, every row's columns drawn
	// from one support of 40/d columns, so that d is the block's density on
	// its support. "compacted" fills it over its dense copy, "csr" over the
	// CSR rows; compactDensity sits at their crossover. "random" draws every
	// row's 40 columns from all 2,048, as real webspam rows would: its
	// support is about 2,000 columns wide, and it fills on CSR. One op is one
	// whole fill.
	whole := func(x *la.Matrix, minDensity float64) func(b *testing.B) {
		return func(b *testing.B) {
			c := NewRowCache(RBF(1.0/80), x, x.Rows())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fillWhole(minDensity)
				b.StopTimer()
				c.Release()
				b.StartTimer()
			}
		}
	}
	for _, d := range []int{5, 10, 20, 40} {
		x := supportMat(rng, 188, 2048, 40, 40*100/d)
		b.Run(fmt.Sprintf("sparse-whole-d%02d-compacted", d), whole(x, 0))
		b.Run(fmt.Sprintf("sparse-whole-d%02d-csr", d), whole(x, math.Inf(1)))
	}
	b.Run("sparse-whole-random", whole(supportMat(rng, 188, 2048, 40, 2048), compactDensity))
	b.Run("dense-fill-sweep", sweep(450))
	b.Run("dense-fill-sweep-lazy", sweep(449))
	// Eviction at a 64 KiB row stride (table3's largest single-node shape): a
	// miss copies 1023 entries that sit one 8192-float row apart in a 64 MiB
	// block and evaluates the other 7169 — where a strided copy is likeliest
	// to lose to the evaluation it replaces.
	b.Run("dense-large-stride", func(b *testing.B) {
		x := denseMat(rng, 8192, 16)
		c := NewRowCache(RBF(0.1), x, 1024)
		for i := 0; i < 1024; i++ {
			c.Row(i)
		}
		idx := rng.Perm(8192)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchRow = c.Row(idx[i%len(idx)])
		}
	})
}

// supportMat returns m CSR rows over n features, each storing k entries at
// columns drawn from one support of u columns (itself drawn from the n), so
// the block's density on its support is about k/u; u = n draws every row's
// columns from all of them.
func supportMat(rng *rand.Rand, m, n, k, u int) *la.Matrix {
	support := rng.Perm(n)[:u]
	rp := make([]int32, m+1)
	ix := make([]int32, 0, m*k)
	vx := make([]float64, 0, m*k)
	for i := range m {
		row := make([]int32, k)
		for j, c := range rng.Perm(u)[:k] {
			row[j] = int32(support[c])
		}
		slices.Sort(row)
		for _, c := range row {
			ix = append(ix, c)
			vx = append(vx, rng.NormFloat64())
		}
		rp[i+1] = int32(len(ix))
	}
	return la.NewSparse(m, n, rp, ix, vx)
}

// BenchmarkRowCacheHit isolates the pure hit path (lookup + LRU bump).
func BenchmarkRowCacheHit(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := denseMat(rng, 512, 16)
	c := NewRowCache(RBF(0.1), x, 8)
	c.Row(3)
	c.Row(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRow = c.Row(3 + i&1)
	}
}
