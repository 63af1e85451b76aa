package kernel

import (
	"math/rand"
	"testing"

	"casvm/internal/la"
)

// TestColumnCacheMatchesReference drives a ColumnCache and the
// container/list reference LRU of lru_test.go with one random trace of
// pair lookups — both ids touched before either insert, as distributed SMO
// does — and demands the same hits, misses and resident set at every step,
// with each resident entry keeping the sample, label and column it was
// filled with. The cache starts on NaN-poisoned pool chunks.
func TestColumnCacheMatchesReference(t *testing.T) {
	const keys, rowLen = 60, 5
	rng := rand.New(rand.NewSource(21))
	samples := make([]*la.Matrix, keys)
	for g := range samples {
		samples[g] = la.NewDense(1, 1, []float64{float64(g)})
	}
	fill := func(g int, dst []float64) float64 {
		for i := range dst {
			dst[i] = float64(g*100 + i)
		}
		return 0
	}
	for _, capacity := range []int{0, 2, 3, 7, keys} {
		poisonSlabPool(2)
		c := NewColumnCache(keys, capacity, rowLen)
		ref := newRefLRU(capacity, rowLen, fill)
		insert := func(g int) *Column {
			e := c.Put(g, samples[g], float64(g%2*2-1))
			fill(g, e.K)
			return e
		}
		for step := 0; step < 2000; step++ {
			gh := rng.Intn(keys)
			gl := (gh + 1 + rng.Intn(keys-1)) % keys
			// The reference has no touch-without-fill, so replay the order the
			// cache sees: resident ids first, then the inserts.
			order := []int{gh, gl}
			if !c.Resident(gh) && c.Resident(gl) {
				order = []int{gl, gh}
			}
			for _, g := range order {
				ref.Row(g)
			}
			eh, el := c.Get(gh), c.Get(gl)
			if eh == nil {
				eh = insert(gh)
			}
			if el == nil {
				el = insert(gl)
			}
			for _, pair := range []struct {
				g int
				e *Column
			}{{gh, eh}, {gl, el}} {
				if pair.e.X != samples[pair.g] || pair.e.Y != float64(pair.g%2*2-1) || len(pair.e.K) != rowLen {
					t.Fatalf("cap=%d step=%d: entry of id %d holds %+v", capacity, step, pair.g, *pair.e)
				}
				for i, v := range pair.e.K {
					if v != float64(pair.g*100+i) {
						t.Fatalf("cap=%d step=%d: column of id %d holds %v at %d", capacity, step, pair.g, v, i)
					}
				}
			}
			hits, misses := c.Stats()
			if hits != ref.hits || misses != ref.misses {
				t.Fatalf("cap=%d step=%d: hits/misses %d/%d, reference %d/%d",
					capacity, step, hits, misses, ref.hits, ref.misses)
			}
			for g := 0; g < keys; g++ {
				if _, want := ref.rows[g]; c.Resident(g) != want {
					t.Fatalf("cap=%d step=%d: id %d resident=%v, reference %v", capacity, step, g, !want, want)
				}
			}
		}
	}
}

// TestColumnCacheAllocFree: lookups, hit or miss, allocate nothing — the
// slab owns every column from construction.
func TestColumnCacheAllocFree(t *testing.T) {
	c := NewColumnCache(64, 4, 16)
	x := la.NewDense(1, 1, []float64{1})
	g := 0
	if avg := testing.AllocsPerRun(200, func() {
		if c.Get(g%64) == nil {
			c.Put(g%64, x, 1)
		}
		c.Get((g + 1) % 64)
		g += 3
	}); avg != 0 {
		t.Fatalf("%v allocs per lookup pair", avg)
	}
}
