package kernel

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"

	"casvm/internal/la"
)

// refLRU replicates the seed's container/list-based row cache, so the
// slice-backed cache can be checked for identical behaviour — same rows, same
// hits and misses, same victims, same LRU order — and it is the shadow model
// of the symmetric fill's flop charge: every miss is filled whole by fillRow
// (the oracle, Params.Row) and charged the share of its whole-row charge that
// falls on the columns whose rows were not resident and complete when the
// fill ran. (ColumnCache's test uses the bookkeeping alone.)
type refLRU struct {
	capacity int
	rowLen   int
	fillRow  func(i int, dst []float64) float64
	rows     map[int]*list.Element
	lru      *list.List

	hits, misses int64
	flops        float64
	victim       int // row the last eviction removed, -1 before the first
}

type refEntry struct {
	index int
	row   []float64
}

func newRefLRU(capacity, rowLen int, fillRow func(int, []float64) float64) *refLRU {
	if capacity < 2 {
		capacity = 2
	}
	return &refLRU{
		capacity: capacity,
		rowLen:   rowLen,
		fillRow:  fillRow,
		rows:     make(map[int]*list.Element, capacity),
		lru:      list.New(),
		victim:   -1,
	}
}

// acquire counts a miss on row i and gives it an entry, the LRU victim's once
// full, most recent at once — as lruSlab.acquire does.
func (c *refLRU) acquire(i int) *refEntry {
	c.misses++
	var e *refEntry
	if c.lru.Len() >= c.capacity {
		el := c.lru.Back()
		e = el.Value.(*refEntry)
		delete(c.rows, e.index)
		c.lru.Remove(el)
		c.victim = e.index
	} else {
		e = &refEntry{row: make([]float64, c.rowLen)}
	}
	e.index = i
	c.rows[i] = c.lru.PushFront(e)
	return e
}

// fill completes e with the oracle and charges it for `evaluated` columns.
func (c *refLRU) fill(e *refEntry, evaluated int) {
	whole := c.fillRow(e.index, e.row)
	c.flops += whole * float64(evaluated) / float64(c.rowLen)
}

func (c *refLRU) Row(i int) []float64 {
	if el, ok := c.rows[i]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*refEntry).row
	}
	e := c.acquire(i)
	c.fill(e, c.rowLen-(len(c.rows)-1)) // every resident row but its own
	return e.row
}

// PrefetchPair is the pair fill's shadow: both slots are acquired before
// either row is filled, so neither is a source for the other, and the second
// row takes K(i, j) from the first.
func (c *refLRU) PrefetchPair(i, j int) {
	var missed []*refEntry
	keys := []int{i, j}
	if i == j {
		keys = keys[:1]
	}
	for _, r := range keys {
		if el, ok := c.rows[r]; ok {
			c.lru.MoveToFront(el)
		} else {
			missed = append(missed, c.acquire(r))
		}
	}
	absent := c.rowLen - (len(c.rows) - len(missed))
	for k, e := range missed {
		c.fill(e, absent-k)
	}
}

// order lists the resident rows, most recent first.
func (c *refLRU) order() []int {
	var out []int
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*refEntry).index)
	}
	return out
}

func (l *lruSlab) order() []int {
	var out []int
	for s := l.head; s >= 0; s = l.next[s] {
		out = append(out, int(l.keyOf[s]))
	}
	return out
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
				want := ref.Row(i)
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

// TestRowCacheSymmetricFillOracle drives the cache and the reference with
// seeded random sequences of Row and PrefetchPair — i == j and the immediate
// re-request of the row just evicted included — from a capacity where nearly
// every fill evaluates everything (2) to one where the last fills evaluate
// almost nothing (m). After every access: each returned row equals the
// oracle's full row bit for bit, whichever entries were copied; hits, misses,
// and the LRU order (hence every victim) equal the reference's; the flop
// total equals the formula over the entries the shadow model says were
// evaluated. Accesses allocate nothing.
func TestRowCacheSymmetricFillOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const m = 90
	for _, a := range []*la.Matrix{denseMat(rng, m, 7), sparseMat(rng, m, 40, 0.15)} {
		for _, p := range []Params{RBF(0.25), {Kind: Polynomial, Coef: 1, Degree: 2}} {
			for _, capacity := range []int{2, 3, 64, m} {
				c := NewRowCache(p, a, capacity)
				ref := newRefLRU(capacity, m, func(i int, dst []float64) float64 {
					return p.Row(a, i, dst)
				})
				pick := func() int {
					switch k := rng.Intn(8); {
					case k == 0 && ref.victim >= 0:
						return ref.victim
					case k < 5:
						return rng.Intn(12) // hot set
					}
					return rng.Intn(m)
				}
				check := func(step, i int) {
					t.Helper()
					got, want := c.Row(i), ref.Row(i)
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("sparse=%v kind=%v cap=%d step=%d: row %d col %d: %v != %v",
								a.Sparse(), p.Kind, capacity, step, i, j, got[j], want[j])
						}
					}
				}
				for step := 0; step < 1500; step++ {
					i := pick()
					if rng.Intn(2) == 0 {
						j := pick()
						if rng.Intn(6) == 0 {
							j = i
						}
						c.PrefetchPair(i, j)
						ref.PrefetchPair(i, j)
						check(step, i)
						check(step, j)
					} else {
						check(step, i)
					}
					h, mi, f := c.Stats()
					if h != ref.hits || mi != ref.misses || f != ref.flops {
						t.Fatalf("sparse=%v kind=%v cap=%d step=%d: stats (%d,%d,%g) != shadow (%d,%d,%g)",
							a.Sparse(), p.Kind, capacity, step, h, mi, f, ref.hits, ref.misses, ref.flops)
					}
					if got, want := c.lru.order(), ref.order(); !slices.Equal(got, want) {
						t.Fatalf("cap=%d step=%d: LRU order %v, reference %v", capacity, step, got, want)
					}
				}
				if _, misses, _ := c.Stats(); capacity == m && misses > m {
					t.Fatalf("capacity m: %d misses over %d rows", misses, m)
				}
				if a.Sparse() && raceDetector {
					continue
				}
				idx := 0
				allocs := testing.AllocsPerRun(2000, func() {
					c.PrefetchPair(idx%m, (idx+31)%m)
					c.Row((idx + 7) % m)
					idx += 3
				})
				if allocs != 0 {
					t.Fatalf("sparse=%v cap=%d: %v allocs per access, want 0", a.Sparse(), capacity, allocs)
				}
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
