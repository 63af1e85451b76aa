package kernel

import (
	"math"
	"math/rand"
	"testing"

	"casvm/internal/la"
)

// putSample inserts the non-resident id g into c the way distributed SMO
// does, from its wire row: decoded straight into its working-set slot for a
// dense cache, into a 1-row matrix the slot keeps for a CSR one, which it
// also returns.
func putSample(t testing.TB, c *ColumnCache, g int, row []byte) (int32, *la.Matrix) {
	var x *la.Matrix
	if c.csr != nil {
		var err error
		if x, err = la.DecodeMatrix(row); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Put(g, x)
	if x == nil {
		ws, r := c.Sample(s)
		if err := ws.DecodeRowInto(r, row); err != nil {
			t.Fatal(err)
		}
	}
	return s, x
}

// wireRows returns each row of x as its own EncodeRows buffer, and x as
// the receivers decode it: its values rounded to the wire's float32.
func wireRows(x *la.Matrix) ([][]byte, *la.Matrix) {
	rows := make([][]byte, x.Rows())
	for i := range rows {
		rows[i] = x.EncodeRows([]int{i})
	}
	got, err := la.DecodeMatrices(rows)
	if err != nil {
		panic(err)
	}
	return rows, got
}

// sameBits reports whether a and b hold the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestColumnCacheMatchesReference drives a ColumnCache and the
// container/list reference LRU of lru_test.go with one random trace of
// pair lookups — both ids touched before either insert, as distributed SMO
// does — and demands the same hits, misses and resident set at every step,
// with each resident slot keeping the sample, norm, diagonal and column it
// was filled with: the decoded row and its norm bit for bit, and for a CSR
// slot the very matrix it was given. The cache starts on NaN-poisoned pool
// chunks.
func TestColumnCacheMatchesReference(t *testing.T) {
	const keys, rowLen = 60, 5
	rng := rand.New(rand.NewSource(21))
	fill := func(g int, dst []float64) float64 {
		for i := range dst {
			dst[i] = float64(g*100 + i)
		}
		return 0
	}
	for _, sparse := range []bool{false, true} {
		local, samples := denseMat(rng, rowLen, 3), denseMat(rng, keys, 3)
		if sparse {
			local, samples = sparseMat(rng, rowLen, 30, 0.3), sparseMat(rng, keys, 30, 0.3)
		}
		wire, want := wireRows(samples)
		for _, capacity := range []int{0, 2, 3, 7, keys} {
			poisonSlabPool(2)
			c := NewColumnCache(keys, capacity, local)
			ref := newRefLRU(capacity, rowLen, fill)
			kept := make([]*la.Matrix, keys) // CSR: the matrix id g was put with
			insert := func(g int) int32 {
				s, x := putSample(t, c, g, wire[g])
				kept[g] = x
				fill(g, c.Column(s))
				c.SetDiag(s, float64(g))
				return s
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
				sh, sl := c.Get(gh), c.Get(gl)
				if sh < 0 {
					sh = insert(gh)
				}
				if sl < 0 {
					sl = insert(gl)
				}
				for _, pair := range []struct {
					g int
					s int32
				}{{gh, sh}, {gl, sl}} {
					g, s := pair.g, pair.s
					x, r := c.Sample(s)
					if c.Diag(s) != float64(g) || len(c.Column(s)) != rowLen {
						t.Fatalf("sparse=%v cap=%d step=%d: slot of id %d holds diag %v, %d column entries",
							sparse, capacity, step, g, c.Diag(s), len(c.Column(s)))
					}
					if sparse && (x != kept[g] || r != 0) {
						t.Fatalf("sparse cap=%d step=%d: slot of id %d lost its matrix", capacity, step, g)
					}
					for j := range x.Features() {
						if v := x.At(r, j); !sameBits(v, want.At(g, j)) {
							t.Fatalf("sparse=%v cap=%d step=%d: sample of id %d holds %v at %d, want %v",
								sparse, capacity, step, g, v, j, want.At(g, j))
						}
					}
					if !sameBits(x.SqNormRow(r), want.SqNormRow(g)) {
						t.Fatalf("sparse=%v cap=%d step=%d: norm of id %d is %v, want %v",
							sparse, capacity, step, g, x.SqNormRow(r), want.SqNormRow(g))
					}
					for i, v := range c.Column(s) {
						if v != float64(g*100+i) {
							t.Fatalf("sparse=%v cap=%d step=%d: column of id %d holds %v at %d",
								sparse, capacity, step, g, v, i)
						}
					}
				}
				hits, misses := c.Stats()
				if hits != ref.hits || misses != ref.misses {
					t.Fatalf("sparse=%v cap=%d step=%d: hits/misses %d/%d, reference %d/%d",
						sparse, capacity, step, hits, misses, ref.hits, ref.misses)
				}
				for g := 0; g < keys; g++ {
					if _, want := ref.rows[g]; c.Resident(g) != want {
						t.Fatalf("sparse=%v cap=%d step=%d: id %d resident=%v, reference %v",
							sparse, capacity, step, g, !want, want)
					}
				}
			}
			c.Release()
		}
	}
}

// TestColumnCacheAllocFree: lookups, hit or miss, allocate nothing — and
// neither does a dense insert (Put, the row decoded into its slot, its norm
// set) once the cache's chunks are taken.
func TestColumnCacheAllocFree(t *testing.T) {
	c := NewColumnCache(64, 4, la.Zeros(16, 5))
	wire, _ := wireRows(denseMat(rand.New(rand.NewSource(5)), 64, 5))
	for g := range 4 {
		putSample(t, c, g, wire[g])
	}
	g := 0
	if avg := testing.AllocsPerRun(200, func() {
		if c.Get(g%64) < 0 {
			putSample(t, c, g%64, wire[g%64])
		}
		c.Get((g + 1) % 64)
		g += 3
	}); avg != 0 {
		t.Fatalf("%v allocs per lookup pair", avg)
	}
}
