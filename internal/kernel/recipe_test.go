package kernel

import (
	"math/rand"
	"testing"

	"casvm/internal/la"
)

// fresh returns a copy of a that has not computed its norm cache.
func fresh(a *la.Matrix) *la.Matrix {
	rows := make([]int, a.Rows())
	for i := range rows {
		rows[i] = i
	}
	return a.Subset(rows) // a Subset inherits norms only when a holds them
}

// TestOneRecipeEverywhere pins the package's one kernel recipe: Eval(a, i, a,
// j) is the same float whether a's norm cache exists yet or not, and every
// fill — a row of a lazily filled RowCache, a row of a whole-filled RowCache,
// a Dis-SMO column (a one-column CrossTile, also of a one-row matrix holding
// the sample, as the pair exchange has it), a CrossTile block — and Eval
// across two one-row matrices (the pair exchange's K(high, low)) give it bit
// for bit, dense and CSR. Before one recipe, Eval(a, i, a, j) took the difference form on a
// dense matrix without norms and the norms identity with them.
//
// The CSR block here compacts (fillWhole), so its whole RowCache is Eval over
// the compacted matrix bit for bit instead, and within compactTol of the
// recipe over the CSR rows.
func TestOneRecipeEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, base := range []*la.Matrix{denseMat(rng, 37, 9), sparseMat(rng, 37, 30, 0.3)} {
		for _, p := range tileKinds {
			m := base.Rows()
			cold := make([][]float64, m) // Eval on a matrix without norms, one per entry
			for i := range cold {
				cold[i] = make([]float64, m)
				for j := range cold[i] {
					cold[i][j] = p.Eval(fresh(base), i, fresh(base), j)
				}
			}
			a := fresh(base)
			a.EnsureNorms()
			cm := compacted(base)
			cache := NewRowCache(p, fresh(base), m)
			lazyCache := NewRowCache(p, fresh(base), 2)
			block := make([]float64, m*m)
			p.CrossTile(a, allRows(m), a, 0, m, block, m)
			col := make([]float64, m)
			for i := range m {
				lazy := lazyCache.Row(i)
				whole := cache.Row(i)
				column(p, a, a, i, col)
				for j := range m {
					want := cold[i][j]
					got := map[string]float64{
						"Eval with norms":       p.Eval(a, i, a, j),
						"Eval of one-row pairs": p.Eval(a.Subset([]int{i}), 0, a.Subset([]int{j}), 0),
						"lazy RowCache":         lazy[j],
						"whole RowCache":        whole[j],
						"CrossTile column":      col[j],
						"CrossTile":             block[i*m+j],
					}
					if cm != nil {
						if v := p.Eval(cm, i, cm, j); whole[j] != v {
							t.Fatalf("kind=%v (%d,%d): whole RowCache %v, Eval over the compacted block %v",
								p.Kind, i, j, whole[j], v)
						}
						delete(got, "whole RowCache")
					}
					for name, v := range got {
						if v != want {
							t.Fatalf("sparse=%v kind=%v (%d,%d): %s %v, Eval without norms %v",
								a.Sparse(), p.Kind, i, j, name, v, want)
						}
					}
				}
				if cm != nil {
					nearCSR(t, p, a, i, whole)
				}
			}
			one := make([]float64, m)
			for j := range m {
				column(p, a, a.Subset([]int{j}), 0, one)
				for i, v := range one {
					if v != cold[i][j] {
						t.Fatalf("sparse=%v kind=%v: column of one-row sample %d at %d: %v, Eval %v",
							a.Sparse(), p.Kind, j, i, v, cold[i][j])
					}
				}
			}
		}
	}
}

// TestWholeFillMatchesOracle: a cache whose capacity covers every row fills
// them all at its first Row or PrefetchPair — m misses, no hit, the whole
// fill's charge, and storage for every row — and every row then equals the
// oracle bit for bit, over NaN-poisoned pool chunks. The shapes cover every
// m%4 with m%16 ≠ 0, and put chunk boundaries inside and between the 16-row
// blocks (a 450-value row leaves 36 rows to a chunk, a 700-value row 23),
// and include the one- and two-row caches (a one-row cache has two slots,
// the minimum). One dense block holds rows far from the rest, so that its
// Gaussian panels meet exponents below −708 mid-batch and hand them back to
// math.Exp. The Gaussian takes the lane panels, which store both triangles;
// the polynomial and linear kernels take CrossTile and the mirror from it.
// After Release the cache fills whole again, over its own stale storage. The
// oracle of a CSR block that compacts is Params.Row over its compacted
// matrix, and its rows are held within compactTol of Row over the CSR rows
// too; the charge is the CSR one either way.
func TestWholeFillMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	far := denseMat(rng, 90, 4)
	for i := 2; i < far.Rows(); i += 5 {
		for j, v := range far.DenseRow(i) {
			far.DenseRow(i)[j] = 30 * v
		}
	}
	for _, a := range []*la.Matrix{denseMat(rng, 450, 5), sparseMat(rng, 450, 60, 0.1),
		denseMat(rng, 1, 3), denseMat(rng, 2, 3), denseMat(rng, 17, 4), sparseMat(rng, 33, 20, 0.3),
		denseMat(rng, 67, 7), denseMat(rng, 100, 6), denseMat(rng, 700, 3), far} {
		m := a.Rows()
		oracle := a
		if cm := compacted(a); cm != nil {
			oracle = cm
		}
		for _, p := range []Params{RBF(0.3), {Kind: Polynomial, Coef: 1, Degree: 2}, {Kind: Linear}} {
			want := make([][]float64, m)
			for i := range want {
				want[i] = make([]float64, m)
				p.Row(oracle, i, want[i])
				if oracle != a {
					nearCSR(t, p, a, i, want[i])
				}
			}
			poisonSlabPool(int(m*m/slabChunkLen) + 2)
			c := NewRowCache(p, a, m)
			flops := wholeFillFlops(a, int(c.lru.chunkRows))
			for round := range 2 {
				h0, _, _ := c.Stats()
				first := rng.Intn(m)
				if round == 0 {
					c.Row(first)
				} else {
					c.PrefetchPair(first, (first+1)%m)
				}
				h, misses, f := c.Stats()
				if h != h0 || misses != int64(m)*int64(round+1) || f != flops*float64(round+1) {
					t.Fatalf("sparse=%v kind=%v m=%d round %d: stats (%d, %d, %g), want (%d, %d, %g)",
						a.Sparse(), p.Kind, m, round, h, misses, f, h0, m*(round+1), flops*float64(round+1))
				}
				if got := c.lru.allocatedRows(); got < m || got > len(c.lru.keyOf) {
					t.Fatalf("m=%d: %d rows of storage after the whole fill", m, got)
				}
				for i := range m {
					row := c.Row(i)
					for j, v := range row {
						if v != want[i][j] {
							t.Fatalf("sparse=%v kind=%v m=%d round %d: row %d col %d: %v, oracle %v",
								a.Sparse(), p.Kind, m, round, i, j, v, want[i][j])
						}
					}
				}
				if _, misses2, _ := c.Stats(); misses2 != misses {
					t.Fatalf("m=%d: a whole cache missed again", m)
				}
				c.Release()
			}
		}
	}
}
