package kernel

import (
	"math/rand"
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
