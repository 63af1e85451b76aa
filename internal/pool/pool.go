// Package pool provides the persistent worker pool under the solver's
// shared-memory parallel layer (the goroutine analogue of the paper's
// OpenMP threads inside each MPI rank).
//
// The pool exists because the SMO inner loop issues one parallel region
// per iteration: spawning fresh goroutines per region — what the seed's
// parallel row fill did — costs a scheduler wakeup and a stack for every
// chunk of every iteration. Here the workers are long-lived and parked on
// a channel; a parallel region is just nc−1 channel sends, with the
// calling goroutine executing chunk 0 itself so a 2-chunk region needs a
// single handoff.
//
// Determinism contract: chunk boundaries depend only on (threads, n,
// grain) — never on pool size or GOMAXPROCS — and ParallelForChunks
// reports the chunk count so callers can reduce per-chunk results in
// chunk order. A reduction that scans chunks in order with strict
// comparisons is therefore bit-identical to the serial scan, for any
// thread count. The SMO solver's thread-count-invariance guarantee rests
// on this.
package pool

import (
	"runtime"
	"sync"
)

// Pool is a fixed set of persistent worker goroutines. The zero value is
// not usable; call New. A nil *Pool degrades every operation to serial
// execution, so callers never need nil checks on cold paths.
type Pool struct {
	workers int
	jobs    chan job
}

type job struct {
	fn     func(chunk, lo, hi int)
	chunk  int
	lo, hi int
	wg     *sync.WaitGroup
}

// New creates a pool that can run parallel regions up to `workers` wide.
// workers−1 background goroutines are started (the caller of a parallel
// region is the remaining worker); they live for the life of the process,
// parked on an empty channel when idle.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, jobs: make(chan job, 4*workers)}
	for w := 0; w < workers-1; w++ {
		go p.run()
	}
	return p
}

func (p *Pool) run() {
	for j := range p.jobs {
		j.fn(j.chunk, j.lo, j.hi)
		j.wg.Done()
	}
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide pool, created on first use with
// runtime.NumCPU() workers. Solvers and the kernel-row cache share it:
// concurrently training ranks submit chunks to the same workers, bounding
// total goroutines by the core count instead of ranks × threads. Because
// idle workers are parked on a channel receive, sizing by physical cores
// (rather than GOMAXPROCS at creation time) keeps the pool useful when
// GOMAXPROCS changes later, as `go test -cpu 1,4` does.
func Shared() *Pool {
	sharedOnce.Do(func() { shared = New(runtime.NumCPU()) })
	return shared
}

// chunks returns the deterministic chunk count for an n-element region:
// at most `threads`, and no chunk smaller than grain (except the last).
func chunks(threads, n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	nc := (n + grain - 1) / grain
	if nc > threads {
		nc = threads
	}
	if nc < 1 {
		nc = 1
	}
	return nc
}

// ParallelForChunks splits [0, n) into deterministic chunks and runs
// fn(chunk, lo, hi) for each, using up to `threads` concurrent workers; it
// returns the chunk count so per-chunk partial results can be reduced in
// chunk order. Chunk 0 always runs on the calling goroutine. fn must not
// submit further work to the same pool. Serial fallback (one chunk, inline
// call) happens when threads ≤ 1, n ≤ grain, or the pool is nil.
func (p *Pool) ParallelForChunks(threads, n, grain int, fn func(chunk, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	nc := chunks(threads, n, grain)
	if nc <= 1 || p == nil || p.workers <= 1 {
		if nc <= 1 {
			fn(0, 0, n)
			return 1
		}
		// Pool too narrow for the requested width: run the same chunking
		// serially so per-chunk reductions still see identical boundaries.
		size := (n + nc - 1) / nc
		for c := 0; c < nc; c++ {
			lo := c * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			fn(c, lo, hi)
		}
		return nc
	}
	size := (n + nc - 1) / nc
	var wg sync.WaitGroup
	wg.Add(nc - 1)
	for c := 1; c < nc; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		p.jobs <- job{fn: fn, chunk: c, lo: lo, hi: hi, wg: &wg}
	}
	fn(0, 0, size)
	wg.Wait()
	return nc
}

// ParallelFor is ParallelForChunks without chunk identity: fn(lo, hi) over
// a deterministic partition of [0, n). Use it for elementwise maps (kernel
// row fills, axpy) where chunks write disjoint output ranges.
func (p *Pool) ParallelFor(threads, n, grain int, fn func(lo, hi int)) {
	p.ParallelForChunks(threads, n, grain, func(_, lo, hi int) { fn(lo, hi) })
}
