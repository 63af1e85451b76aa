package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelForCoversRange proves every index is visited exactly once
// for a sweep of sizes, widths and grains.
func TestParallelForCoversRange(t *testing.T) {
	p := New(4)
	for _, n := range []int{0, 1, 2, 7, 64, 1000, 4096} {
		for _, threads := range []int{1, 2, 3, 4, 9} {
			for _, grain := range []int{1, 16, 512} {
				visits := make([]int32, n)
				p.ParallelFor(threads, n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("n=%d threads=%d grain=%d: index %d visited %d times",
							n, threads, grain, i, v)
					}
				}
			}
		}
	}
}

// TestChunkBoundariesDeterministic proves chunk boundaries depend only on
// (threads, n, grain), not on pool width — the determinism contract the
// solver's reductions rely on.
func TestChunkBoundariesDeterministic(t *testing.T) {
	record := func(p *Pool, threads int) [][2]int {
		var mu sync.Mutex
		bounds := make([][2]int, 0, threads)
		nc := p.ParallelForChunks(threads, 1000, 100, func(c, lo, hi int) {
			mu.Lock()
			bounds = append(bounds, [2]int{lo, hi})
			mu.Unlock()
		})
		if nc != len(bounds) {
			t.Fatalf("chunk count %d but %d calls", nc, len(bounds))
		}
		// Order by lo: chunks complete in any order.
		for i := range bounds {
			for j := i + 1; j < len(bounds); j++ {
				if bounds[j][0] < bounds[i][0] {
					bounds[i], bounds[j] = bounds[j], bounds[i]
				}
			}
		}
		return bounds
	}
	wide := record(New(8), 4)
	narrow := record(New(1), 4) // serial fallback must chunk identically
	if len(wide) != len(narrow) {
		t.Fatalf("chunk counts differ: %d vs %d", len(wide), len(narrow))
	}
	for i := range wide {
		if wide[i] != narrow[i] {
			t.Fatalf("chunk %d: %v vs %v", i, wide[i], narrow[i])
		}
	}
}

// TestChunkZeroOnCaller proves chunk 0 runs on the calling goroutine (the
// caller-participates design), by checking the callback for chunk 0 can
// touch caller state without synchronisation under the race detector.
func TestChunkZeroOnCaller(t *testing.T) {
	p := New(4)
	callerLocal := 0
	p.ParallelForChunks(4, 4096, 64, func(c, lo, hi int) {
		if c == 0 {
			callerLocal++ // safe: same goroutine as the test
		}
	})
	if callerLocal != 1 {
		t.Fatalf("chunk 0 ran %d times", callerLocal)
	}
}

// TestSharedConcurrent hammers the shared pool from many goroutines at
// once — the multi-rank training scenario — under -race.
func TestSharedConcurrent(t *testing.T) {
	p := Shared()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			out := make([]float64, 2048)
			for rep := 0; rep < 20; rep++ {
				p.ParallelFor(4, len(out), 64, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] += float64(seed + i)
					}
				})
			}
			for i := range out {
				want := 20 * float64(seed+i)
				if out[i] != want {
					t.Errorf("rank %d: out[%d]=%v want %v", seed, i, out[i], want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestNilPoolServes(t *testing.T) {
	var p *Pool
	sum := 0
	p.ParallelFor(8, 100, 10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 4950 {
		t.Fatalf("nil pool sum=%d", sum)
	}
}
