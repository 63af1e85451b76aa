package kernel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"casvm/internal/la"
)

// poisonSlabPool puts n NaN-filled chunks into the chunk pool, so the caches
// made next start on storage whose every entry is wrong until written: a
// fill that leaves an entry unwritten fails any bitwise comparison with the
// oracle, since NaN equals nothing.
func poisonSlabPool(n int) {
	for range n {
		c := new(slabChunk)
		for i := range c {
			c[i] = math.NaN()
		}
		slabChunks.Put(c)
	}
}

// emptySlabPool drops whatever the chunk pool holds.
func emptySlabPool() {
	slabChunks.mu.Lock()
	slabChunks.free = nil
	slabChunks.mu.Unlock()
}

// TestColumnCacheFillOverPoison: a sample inserted the way distributed SMO
// inserts one — its wire row decoded into a working-set slot, its column
// one CrossTile of the local block against that slot (which
// smo.Solver.FillColumn calls), its diagonal and K(high, low) Evals between
// slots — over NaN-poisoned pool storage gives the same columns, diagonals
// and K(high, low) as zeroed storage would, bit for bit: the Evals and
// CrossTiles of the decoded samples themselves. Dense and sparse, through
// evictions, single inserts and pairs of inserts.
func TestColumnCacheFillOverPoison(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const keys = 40
	for _, sparse := range []bool{false, true} {
		local, ext := denseMat(rng, 70, 6), denseMat(rng, keys, 6)
		if sparse {
			local, ext = sparseMat(rng, 70, 50, 0.2), sparseMat(rng, keys, 50, 0.2)
		}
		wire, ext := wireRows(ext)
		p := RBF(0.3)
		want := make([][]float64, keys)
		for g := range want {
			want[g] = make([]float64, local.Rows())
			column(p, local, ext, g, want[g])
		}
		for _, capacity := range []int{2, 5, keys} {
			poisonSlabPool(4)
			c := NewColumnCache(keys, capacity, local)
			insert := func(g int) int32 {
				s, _ := putSample(t, c, g, wire[g])
				x, r := c.Sample(s)
				c.SetDiag(s, p.Eval(x, r, x, r))
				column(p, local, x, r, c.Column(s))
				return s
			}
			for step := 0; step < 400; step++ {
				gh := rng.Intn(keys)
				gl := (gh + 1 + rng.Intn(keys-1)) % keys
				sh, sl := c.Get(gh), c.Get(gl)
				if sh < 0 {
					sh = insert(gh)
				}
				if sl < 0 {
					sl = insert(gl)
				}
				xh, rh := c.Sample(sh)
				xl, rl := c.Sample(sl)
				if got, want := p.Eval(xh, rh, xl, rl), p.Eval(ext, gh, ext, gl); !sameBits(got, want) {
					t.Fatalf("sparse=%v cap=%d step=%d: K(%d, %d) is %v, want %v", sparse, capacity, step, gh, gl, got, want)
				}
				for _, e := range []struct {
					g int
					s int32
				}{{gh, sh}, {gl, sl}} {
					if got, want := c.Diag(e.s), p.Eval(ext, e.g, ext, e.g); !sameBits(got, want) {
						t.Fatalf("sparse=%v cap=%d step=%d: diagonal of %d is %v, want %v", sparse, capacity, step, e.g, got, want)
					}
					for i, v := range c.Column(e.s) {
						if !sameBits(v, want[e.g][i]) {
							t.Fatalf("sparse=%v cap=%d step=%d: column %d entry %d is %v, want %v",
								sparse, capacity, step, e.g, i, v, want[e.g][i])
						}
					}
				}
			}
			c.Release()
		}
	}
}

// TestReleaseRecyclesChunks: a released cache's chunks go back to the pool
// and a second cache of the same shape gets exactly those backing arrays,
// even with two collections between them,
// for both caches — a short last chunk included; the second fills them to
// the right values over what the first left there. A cache smaller than one
// chunk still takes a whole pooled array. A chunk bigger than one array is
// never pooled.
func TestReleaseRecyclesChunks(t *testing.T) {
	addrs := func(stores ...*rowStore) map[*float64]bool {
		out := map[*float64]bool{}
		for _, st := range stores {
			for _, c := range st.chunks {
				out[&c[:1][0]] = true
			}
		}
		return out
	}
	same := func(a, b map[*float64]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}

	rng := rand.New(rand.NewSource(42))
	a := denseMat(rng, 2048, 3) // 8 rows to a chunk
	p := RBF(0.5)
	emptySlabPool()
	first := NewRowCache(p, a, 40)
	for i := range 40 {
		first.Row(i)
	}
	if n := len(first.lru.chunks); n != 5 {
		t.Fatalf("40 rows of 8 to a chunk: the slab has %d chunks", n)
	}
	was := addrs(&first.lru.rowStore)
	first.Release()
	if len(first.lru.chunks) != 0 || first.lru.used != 0 {
		t.Fatalf("after Release the slab keeps %d chunks and %d slots", len(first.lru.chunks), first.lru.used)
	}
	runtime.GC() // two collections would empty a sync.Pool, not the chunk list
	runtime.GC()
	second := NewRowCache(p, a, 40)
	for i := range 40 {
		second.Row(40 + i)
	}
	if !same(was, addrs(&second.lru.rowStore)) {
		t.Fatal("the second row cache did not get the first one's chunks back across two collections")
	}
	want := make([]float64, a.Rows())
	for i := range 40 {
		p.Row(a, 40+i, want)
		for j, v := range second.Row(40 + i) {
			if v != want[j] {
				t.Fatalf("row %d col %d over recycled storage: %v, want %v", 40+i, j, v, want[j])
			}
		}
	}
	second.Release()
	// A released cache is usable again, from cold.
	if first.Row(3)[5] != second.Row(3)[5] {
		t.Fatal("released caches disagree on a refilled row")
	}
	first.Release()
	second.Release()

	// 4 columns to a chunk: seven full chunks and a last one of two columns;
	// the working set's 30 one-feature samples fill a ninth.
	local := la.Zeros(4096, 1)
	cc := NewColumnCache(100, 30, local)
	for g := range 30 {
		cc.Put(g, nil)
	}
	was = addrs(&cc.lru.rowStore, &cc.ws)
	cc.Release()
	if cc.Resident(0) || len(cc.ws.chunks) != 0 || len(cc.blocks) != 0 {
		t.Fatal("a released column cache still holds its entries")
	}
	cc2 := NewColumnCache(100, 30, local)
	for g := range 30 {
		cc2.Put(g, nil)
	}
	if len(was) != 9 || !same(was, addrs(&cc2.lru.rowStore, &cc2.ws)) {
		t.Fatal("the second column cache did not get the first one's chunks back")
	}
	cc2.Release()

	// A two-row cache of 100-value rows holds 200 values in a whole array.
	small := NewRowCache(p, denseMat(rng, 100, 3), 2)
	small.Row(0)
	if c := small.lru.chunks; len(c) != 1 || len(c[0]) != 2*100 || cap(c[0]) != slabChunkLen {
		t.Fatalf("a two-row cache of 100-value rows holds %d chunks, the first %d of %d values",
			len(c), len(c[0]), cap(c[0]))
	}
	small.Release()

	// Rows longer than a pooled array: one row to a chunk of its own size.
	emptySlabPool()
	big := NewColumnCache(4, 2, la.Zeros(slabChunkLen+1, 0))
	big.Put(0, nil)
	big.Put(1, nil)
	was = addrs(&big.lru.rowStore)
	big.Release()
	for range 4 {
		if c := slabChunks.Get(); was[&c[0]] {
			t.Fatal("an over-size chunk went into the pool")
		}
	}
}

// TestChunkListBound: the chunk list keeps at most maxFreeChunks chunks; one
// given back past that is dropped, and Get hands back the last kept first.
func TestChunkListBound(t *testing.T) {
	emptySlabPool()
	defer emptySlabPool()
	var last *slabChunk
	for range maxFreeChunks + 1 {
		c := new(slabChunk)
		if len(slabChunks.free) < maxFreeChunks {
			last = c
		}
		slabChunks.Put(c)
	}
	if n := len(slabChunks.free); n != maxFreeChunks {
		t.Fatalf("the list keeps %d chunks, want %d", n, maxFreeChunks)
	}
	if slabChunks.Get() != last {
		t.Fatal("Get did not return the last chunk kept")
	}
}
