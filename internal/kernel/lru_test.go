package kernel

import (
	"container/list"
	"math/rand"
	"testing"
)

// refLRU replicates the seed's container/list-based row cache so the
// slice-backed rewrite can be checked for bit-identical behaviour: same
// rows, same hit/miss/flop accounting, same eviction order.
type refLRU struct {
	params   Params
	data     interface{ Rows() int }
	capacity int
	rows     map[int]*list.Element
	lru      *list.List
	fill     func(i int, dst []float64) float64

	hits, misses int64
	flops        float64
}

type refEntry struct {
	index int
	row   []float64
}

func newRefLRU(capacity, m int, fill func(int, []float64) float64) *refLRU {
	if capacity < 2 {
		capacity = 2
	}
	return &refLRU{
		capacity: capacity,
		rows:     make(map[int]*list.Element, capacity),
		lru:      list.New(),
		fill:     fill,
	}
}

func (c *refLRU) Row(i, m int) []float64 {
	if el, ok := c.rows[i]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*refEntry).row
	}
	c.misses++
	var e *refEntry
	if c.lru.Len() >= c.capacity {
		el := c.lru.Back()
		e = el.Value.(*refEntry)
		delete(c.rows, e.index)
		c.lru.Remove(el)
	} else {
		e = &refEntry{row: make([]float64, m)}
	}
	e.index = i
	c.flops += c.fill(i, e.row)
	c.rows[i] = c.lru.PushFront(e)
	return e.row
}

// TestLRUMatchesReference drives the new cache and the seed-equivalent
// reference with an identical random access trace and demands identical
// rows, stats and flops at every step, across dense and sparse matrices
// and several capacities.
func TestLRUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sparse := range []bool{false, true} {
		a := denseMat(rng, 300, 9)
		if sparse {
			a = sparseMat(rng, 300, 30, 0.3)
		}
		p := RBF(0.25)
		for _, cap := range []int{2, 3, 8, 64} {
			c := NewRowCache(p, a, cap)
			ref := newRefLRU(cap, a.Rows(), func(i int, dst []float64) float64 {
				return p.Row(a, i, dst)
			})
			for step := 0; step < 4000; step++ {
				// Zipf-ish trace: mostly a hot working set, occasional cold rows.
				i := rng.Intn(16)
				if rng.Intn(4) == 0 {
					i = rng.Intn(a.Rows())
				}
				got := c.Row(i)
				want := ref.Row(i, a.Rows())
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("cap=%d step=%d row %d: col %d %v != %v",
							cap, step, i, j, got[j], want[j])
					}
				}
			}
			h, m, f := c.Stats()
			if h != ref.hits || m != ref.misses || f != ref.flops {
				t.Fatalf("cap=%d sparse=%v: stats (%d,%d,%g) != ref (%d,%d,%g)",
					cap, sparse, h, m, f, ref.hits, ref.misses, ref.flops)
			}
			if c.lru.used > cap {
				t.Fatalf("cap=%d: %d cached rows exceed capacity", cap, c.lru.used)
			}
		}
	}
}

// TestLRUTwoRowsLive pins the SMO contract: with any capacity ≥ 2, the
// high row fetched first must stay valid (unevicted) while the low row is
// fetched.
func TestLRUTwoRowsLive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := denseMat(rng, 50, 4)
	p := RBF(0.5)
	c := NewRowCache(p, a, 2)
	for pair := 0; pair < 200; pair++ {
		hi, lo := rng.Intn(50), rng.Intn(50)
		rh := c.Row(hi)
		want := make([]float64, 50)
		copy(want, rh)
		c.Row(lo)
		for j := range rh {
			if rh[j] != want[j] {
				t.Fatalf("pair %d (%d,%d): high row clobbered at %d", pair, hi, lo, j)
			}
		}
	}
}

// TestRowCacheAllocFree proves steady-state Row calls allocate nothing —
// the point of the flat-block rewrite.
func TestRowCacheAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := denseMat(rng, 200, 8)
	c := NewRowCache(RBF(0.3), a, 8)
	idx := 0
	allocs := testing.AllocsPerRun(500, func() {
		c.Row(idx % 40) // mix of hits and evicting misses
		idx++
	})
	if allocs != 0 {
		t.Fatalf("Row allocates %v objects/op, want 0", allocs)
	}

	// Sparse: every call a miss (capacity 2, cycling trace), so each run is
	// one scattered fill. 2000 runs for the reason TestPrefetchPairAllocFree
	// gives.
	sp := NewRowCache(RBF(0.3), sparseMat(rng, 200, 2048, 0.02), 2)
	sp.Row(0)
	idx = 1
	allocs = testing.AllocsPerRun(2000, func() {
		sp.Row(idx % 40)
		idx++
	})
	if allocs != 0 {
		t.Fatalf("sparse Row miss allocates %v objects/op, want 0", allocs)
	}
	if hits, _, _ := sp.Stats(); hits != 0 {
		t.Fatalf("sparse pin saw %d hits — it must measure misses", hits)
	}
}

// TestDiagCacheMatchesEval pins the lazy diagonal cache against direct
// evaluation for a non-Gaussian kernel.
func TestDiagCacheMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := denseMat(rng, 80, 6)
	p := Params{Kind: Polynomial, Coef: 1, Degree: 2}
	c := NewRowCache(p, a, 4)
	for i := 0; i < a.Rows(); i++ {
		if got, want := c.Diag(i), p.Eval(a, i, a, i); got != want {
			t.Fatalf("diag[%d]=%v want %v", i, got, want)
		}
	}
	g := NewRowCache(RBF(0.1), a, 4)
	if g.Diag(3) != 1 {
		t.Fatal("gaussian diag must be exactly 1")
	}
}
