package kernel

import (
	"math/rand"
	"testing"

	"casvm/internal/la"
)

// allocatedRows is how many rows of storage the slab holds.
func (l *lruSlab) allocatedRows() int {
	n := 0
	for _, c := range l.chunks {
		n += len(c) / l.rowLen
	}
	return n
}

// TestSlabGrowsAsRowsLand: a new cache holds no row storage, and after k
// distinct misses it holds at least k rows and at most k rounded up to a
// whole chunk — never more than its capacity, however the chunks divide it.
// A cache whose capacity covers every row is the exception: its first miss
// fills, and so allocates, every row.
func TestSlabGrowsAsRowsLand(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// 2048-value rows: 8 rows to a chunk, so the test crosses many chunks.
	a := denseMat(rng, 2048, 3)
	for _, capacity := range []int{2, 7, 8, 9, 100, 2047, 2048} {
		c := NewRowCache(RBF(0.5), a, capacity)
		l := &c.lru
		if got := l.allocatedRows(); got != 0 {
			t.Fatalf("cap=%d: a new cache holds %d rows", capacity, got)
		}
		chunk := int(l.chunkRows)
		for k, i := range rng.Perm(a.Rows())[:min(capacity, 150)] {
			c.Row(i)
			k++ // distinct misses so far
			got, most := l.allocatedRows(), min(capacity, (k+chunk-1)/chunk*chunk)
			if capacity >= a.Rows() {
				k, most = a.Rows(), a.Rows()
			}
			if got < k || got > most {
				t.Fatalf("cap=%d chunk=%d: %d rows allocated after %d misses, want [%d, %d]",
					capacity, chunk, got, k, k, most)
			}
		}
	}
}

// TestSlabRowsStayPut: a row handed out before later chunks are allocated
// keeps its address and its contents, in both caches.
func TestSlabRowsStayPut(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := denseMat(rng, 600, 4)
	c := NewRowCache(RBF(0.5), a, a.Rows())
	first := c.Row(5)
	want := append([]float64(nil), first...)
	for i := 0; i < a.Rows(); i++ {
		c.Row(i)
	}
	if len(c.lru.chunks) < 3 {
		t.Fatalf("only %d chunks: the trace did not grow the slab", len(c.lru.chunks))
	}
	again := c.Row(5)
	if &again[0] != &first[0] {
		t.Fatal("row 5 moved when the slab grew")
	}
	for j := range want {
		if again[j] != want[j] {
			t.Fatalf("row 5 col %d: %v after growth, %v before", j, again[j], want[j])
		}
	}

	const keys, rowLen = 400, 1000
	cc := NewColumnCache(keys, keys, la.Zeros(rowLen, 0))
	k := cc.Column(cc.Put(3, nil))
	for i := range k {
		k[i] = float64(i)
	}
	for g := 0; g < keys; g++ {
		if g != 3 {
			cc.Put(g, nil)
		}
	}
	if len(cc.lru.chunks) < 3 {
		t.Fatalf("only %d column chunks: the trace did not grow the slab", len(cc.lru.chunks))
	}
	got := cc.Column(cc.Get(3))
	if &got[0] != &k[0] || len(got) != rowLen {
		t.Fatal("column 3 moved when the slab grew")
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("column 3 entry %d: %v after growth", i, v)
		}
	}
}
