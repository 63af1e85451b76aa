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

	// One rank of casvm-dense: every row of a 450×32 block becomes resident,
	// pair by pair in a seeded order, nothing evicted — so the k-th fill finds
	// k rows to copy from. One op is the whole sweep.
	b.Run("dense-fill-sweep", func(b *testing.B) {
		x := denseMat(rng, 450, 32)
		order := rng.Perm(450)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := NewRowCache(RBF(0.1), x, 450)
			b.StartTimer()
			for k := 0; k < len(order); k += 2 {
				c.PrefetchPair(order[k], order[k+1])
			}
		}
	})
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
