package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"casvm/internal/la"
)

// The tile engine's contract is bit-identity with the scalar paths it
// replaces (the golden E2E hashes pin them), so all comparisons use ==.

var tileKinds = []Params{
	{Kind: Linear},
	{Kind: Polynomial, Coef: 1, Degree: 2},
	RBF(0.2),
	{Kind: Sigmoid, Coef: 0.5, ScaleA: 0.7},
}

// wideSparse is the shape the sparse workload has — 2048 features at 2%, so a
// row is ~40 of 2048 positions — and tall enough (≥ 2·rowGrain rows) that
// threads > 1 really splits the columns. The small sparse cases elsewhere
// are 20–40 features at 25–40%, where a position table is nearly full.
func wideSparse(rng *rand.Rand) *la.Matrix { return sparseMat(rng, 1100, 2048, 0.02) }

func TestTileMatchesRowBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, a := range []*la.Matrix{denseMat(rng, 200, 11), sparseMat(rng, 200, 30, 0.3), wideSparse(rng)} {
		for _, p := range tileKinds {
			for _, rows := range [][]int{{0}, {7, 7}, {3, 199, 0}, {5, 4, 3, 2, 1}, {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11}} {
				want := make([][]float64, len(rows))
				var wantFlops float64
				for r, i := range rows {
					want[r] = make([]float64, a.Rows())
					wantFlops += p.Row(a, i, want[r])
					if !a.Sparse() {
						continue
					}
					// The oracle and Eval are the same merge (la.SpDot)
					// written twice.
					for j := range want[r] {
						if e := p.Eval(a, i, a, j); want[r][j] != e {
							t.Fatalf("kind=%v row %d col %d: Row %v != Eval %v", p.Kind, i, j, want[r][j], e)
						}
					}
				}
				// Every column, then a shuffled third of them: a fill that
				// copies the rest must find them untouched and be charged
				// for the listed columns only.
				m := a.Rows()
				part := allCols(m)
				rng.Shuffle(m, func(x, y int) { part[x], part[y] = part[y], part[x] })
				part = part[:m/3]
				for _, cols := range [][]int32{allCols(m), part} {
					listed := make([]bool, m)
					for _, c := range cols {
						listed[c] = true
					}
					for _, threads := range []int{1, 4} {
						dsts := make([][]float64, len(rows))
						for r := range rows {
							dsts[r] = make([]float64, m)
							for j := range dsts[r] {
								dsts[r][j] = -7
							}
						}
						gotFlops := p.Tile(a, rows, dsts, cols, threads)
						if wf := wantFlops * float64(len(cols)) / float64(m); gotFlops != wf {
							t.Fatalf("kind=%v sparse=%v rows=%v cols=%d threads=%d: flops %v != %v",
								p.Kind, a.Sparse(), rows, len(cols), threads, gotFlops, wf)
						}
						for r := range rows {
							for j := range want[r] {
								w := want[r][j]
								if !listed[j] {
									w = -7
								}
								if dsts[r][j] != w {
									t.Fatalf("kind=%v sparse=%v rows=%v cols=%d threads=%d: [%d][%d] %v != %v",
										p.Kind, a.Sparse(), rows, len(cols), threads, r, j, dsts[r][j], w)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestTileParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, sparse := range []bool{false, true} {
		a := denseMat(rng, 3000, 10)
		if sparse {
			a = sparseMat(rng, 3000, 40, 0.25)
		}
		for _, p := range []Params{RBF(0.15), {Kind: Linear}, {Kind: Polynomial, Coef: 1, Degree: 2}} {
			rows := []int{11, 2999, 0}
			serial := [][]float64{make([]float64, a.Rows()), make([]float64, a.Rows()), make([]float64, a.Rows())}
			par := [][]float64{make([]float64, a.Rows()), make([]float64, a.Rows()), make([]float64, a.Rows())}
			fs := p.Tile(a, rows, serial, allCols(a.Rows()), 1)
			fp := p.Tile(a, rows, par, allCols(a.Rows()), 4)
			if fs != fp {
				t.Fatalf("kind=%v sparse=%v: flops %v vs %v", p.Kind, sparse, fs, fp)
			}
			for r := range rows {
				for j := range serial[r] {
					if serial[r][j] != par[r][j] {
						t.Fatalf("kind=%v sparse=%v: [%d][%d] differs", p.Kind, sparse, r, j)
					}
				}
			}
		}
	}
}

// mats builds the four storage pairings (a, b) the CrossTile dispatch
// covers, with feature widths kept equal within a pairing, plus the wide
// low-density sparse pairing and one whose two sides differ in width (the
// position table must span the wider).
func crossMats(rng *rand.Rand) [][2]*la.Matrix {
	n := 13
	return [][2]*la.Matrix{
		{denseMat(rng, 9, n), denseMat(rng, 17, n)},
		{sparseMat(rng, 9, n, 0.4), sparseMat(rng, 17, n, 0.4)},
		{sparseMat(rng, 9, n, 0.4), denseMat(rng, 17, n)},
		{denseMat(rng, 9, n), sparseMat(rng, 17, n, 0.4)},
		{sparseMat(rng, 9, 2048, 0.02), sparseMat(rng, 17, 2048, 0.02)},
		{sparseMat(rng, 9, 40, 0.3), sparseMat(rng, 17, 90, 0.3)},
	}
}

func TestCrossTileMatchesEvalBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for pi, pair := range crossMats(rng) {
		a, b := pair[0], pair[1]
		for _, p := range tileKinds {
			// Ragged tile shapes: odd row counts and column windows.
			for _, sh := range []struct {
				rows     []int
				clo, chi int
			}{
				{[]int{0}, 0, 1},
				{[]int{8, 1, 5}, 3, 16},
				{[]int{0, 1, 2, 3, 4}, 0, 17},
				{[]int{6, 2}, 16, 17},
			} {
				w := sh.chi - sh.clo
				ld := w + 2
				dst := make([]float64, len(sh.rows)*ld)
				p.CrossTile(a, sh.rows, b, sh.clo, sh.chi, dst, ld)
				for r, i := range sh.rows {
					for c := sh.clo; c < sh.chi; c++ {
						got := dst[r*ld+(c-sh.clo)]
						if want := p.Eval(a, i, b, c); got != want {
							t.Fatalf("pair=%d kind=%v rows=%v c=%d: tile=%v eval=%v",
								pi, p.Kind, sh.rows, c, got, want)
						}
					}
				}
			}
		}
	}
}

func TestCrossTileSameMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for _, sparse := range []bool{false, true} {
		a := denseMat(rng, 15, 7)
		if sparse {
			a = sparseMat(rng, 15, 20, 0.4)
		}
		for _, p := range tileKinds {
			rows := []int{14, 0, 7}
			dst := make([]float64, len(rows)*a.Rows())
			p.CrossTile(a, rows, a, 0, a.Rows(), dst, a.Rows())
			for r, i := range rows {
				for c := 0; c < a.Rows(); c++ {
					got := dst[r*a.Rows()+c]
					if want := p.Eval(a, i, a, c); got != want {
						t.Fatalf("sparse=%v kind=%v (%d,%d): tile=%v eval=%v",
							sparse, p.Kind, i, c, got, want)
					}
				}
			}
		}
	}
}

// TestPrefetchPairMatchesSequentialRows drives two caches with an identical
// random pair trace — one calling PrefetchPair before the Row reads, one
// just calling Row — and demands identical row values, miss counts and LRU
// order (hence eviction decisions) at every step. The flop charges are equal
// except for one entry per double miss whose second acquisition evicts:
// sequential Row(i) still finds that victim resident and copies K(i, victim),
// the pair has evicted it before filling and evaluates it. The shared K(i, j)
// costs one evaluation on both sides.
func TestPrefetchPairMatchesSequentialRows(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	for _, a := range []*la.Matrix{denseMat(rng, 120, 6), sparseMat(rng, 120, 25, 0.3), wideSparse(rng)} {
		p := RBF(0.3)
		for _, threads := range []int{1, 4} {
			for _, capacity := range []int{2, 3, 16} {
				cp := NewRowCache(p, a, capacity)
				cp.SetThreads(threads)
				cs := NewRowCache(p, a, capacity)
				steps := 2000
				if a.Rows() > 1000 {
					steps = 150 // rows are 9× longer; the race matrix runs this
				}
				var pairExtra float64
				for step := 0; step < steps; step++ {
					i, j := rng.Intn(24), rng.Intn(24)
					if rng.Intn(5) == 0 {
						i, j = rng.Intn(120), rng.Intn(120)
					}
					secondEvicts := cp.lru.used+1 >= capacity
					before := cp.misses
					cp.PrefetchPair(i, j)
					if cp.misses == before+2 && secondEvicts {
						nnz := a.Features()
						if a.Sparse() {
							ix, _ := a.SparseRow(i)
							nnz = len(ix)
						}
						pairExtra += float64(2*nnz + 1)
					}
					pi, pj := cp.Row(i), cp.Row(j)
					si, sj := cs.Row(i), cs.Row(j)
					for k := range si {
						if pi[k] != si[k] || pj[k] != sj[k] {
							t.Fatalf("cap=%d threads=%d step=%d pair(%d,%d): rows differ at %d",
								capacity, threads, step, i, j, k)
						}
					}
				}
				_, mp, fp := cp.Stats()
				_, ms, fs := cs.Stats()
				if mp != ms || fp != fs+pairExtra {
					t.Fatalf("cap=%d threads=%d sparse=%v: prefetch (misses=%d flops=%g) vs sequential (misses=%d flops=%g + %g)",
						capacity, threads, a.Sparse(), mp, fp, ms, fs, pairExtra)
				}
				if po, so := cp.lru.order(), cs.lru.order(); !slices.Equal(po, so) {
					t.Fatalf("cap=%d threads=%d sparse=%v: LRU order %v vs sequential %v",
						capacity, threads, a.Sparse(), po, so)
				}
			}
		}
	}
}

// TestPrefetchPairAllocFree pins the prefetch path at zero allocations in
// steady state, like Row.
func TestPrefetchPairAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	for _, a := range []*la.Matrix{denseMat(rng, 200, 8), sparseMat(rng, 200, 2048, 0.02)} {
		// Capacity 2 under a cycling trace: every call is a double miss.
		c := NewRowCache(RBF(0.3), a, 2)
		idx := 0
		step := func() {
			c.PrefetchPair(idx%40, (idx+1)%40)
			idx += 2
		}
		step() // warm-up: the sparse fill's position tables are pooled
		if a.Sparse() && raceDetector {
			continue // two pool round trips per double miss: see raceDetector
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Fatalf("sparse=%v: PrefetchPair allocates %v objects/op, want 0", a.Sparse(), allocs)
		}
		if _, misses, _ := c.Stats(); misses != int64(idx) {
			t.Fatalf("sparse=%v: %d misses in %d prefetched rows — the pin must measure misses", a.Sparse(), misses, idx)
		}
	}
}

// BenchmarkCrossTile prices the blocked query×SV panel against per-element
// Eval — the kernel-level half of the batch-predict speedup.
func BenchmarkCrossTile(b *testing.B) {
	rng := rand.New(rand.NewSource(88))
	const nq, nsv, n = 64, 2048, 64
	q := denseMat(rng, nq, n)
	sv := denseMat(rng, nsv, n)
	p := RBF(0.1)
	rows := make([]int, nq)
	for i := range rows {
		rows[i] = i
	}
	dst := make([]float64, nq*nsv)
	b.Run("tile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.CrossTile(q, rows, sv, 0, nsv, dst, nsv)
		}
	})
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < nq; r++ {
				for c := 0; c < nsv; c++ {
					dst[r*nsv+c] = p.Eval(q, r, sv, c)
				}
			}
		}
	})
}
