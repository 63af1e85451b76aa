package la

import (
	"math/rand"
	"testing"
)

var benchSink float64

// BenchmarkDot covers the unrolled micro-kernels at the row widths the SMO
// hot path sees (small feature counts) and cache-resident widths.
func BenchmarkDot(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		rng := rand.New(rand.NewSource(int64(n)))
		x, y := randVec(rng, n), randVec(rng, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				benchSink = Dot(x, y)
			}
		})
	}
}

func BenchmarkSpDotAligned(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	ai, av := randSparseVec(rng, 4096, 1, false)
	bv := randVec(rng, len(av))
	b.SetBytes(int64(16 * len(av)))
	for i := 0; i < b.N; i++ {
		benchSink = SpDot(ai, av, ai, bv)
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1024:
		return "n4096"
	case n >= 256:
		return "n256"
	default:
		return "n16"
	}
}
