package kernel

import (
	"math/rand"
	"testing"
)

func TestCacheWithThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a := denseMat(rng, 2500, 8)
	c1 := NewRowCache(RBF(0.2), a, 8)
	c4 := NewRowCache(RBF(0.2), a, 8)
	c4.SetThreads(4)
	for _, i := range []int{0, 100, 2499, 0} {
		r1 := c1.Row(i)
		r4 := c4.Row(i)
		for j := range r1 {
			if r1[j] != r4[j] {
				t.Fatalf("threaded cache differs at row %d col %d", i, j)
			}
		}
	}
	_, m1, f1 := c1.Stats()
	_, m4, f4 := c4.Stats()
	if m1 != m4 || f1 != f4 {
		t.Fatal("miss/flop accounting must not depend on threads")
	}
}
