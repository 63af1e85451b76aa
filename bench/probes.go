package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"casvm/internal/core"
	"casvm/internal/kernel"
	"casvm/internal/kmeans"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/smo"
	"casvm/internal/tcpmpi"
)

// The probes below time one layer's exported calls in isolation, on the
// workload's own matrix, from the traced run. Each is a few hundred calls
// reduced to a per-call figure, so a change to a layer shows here before it
// shows end to end.

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probeRows is how many seeded rows the kernel probes touch.
const probeRows = 256

func pickRows(x *la.Matrix, seed int64, n int) []int {
	if n > x.Rows() {
		n = x.Rows()
	}
	return rand.New(rand.NewSource(seed)).Perm(x.Rows())[:n]
}

func probeKMeans(tr *tracer, x *la.Matrix, k int, seed int64, m map[string]float64) {
	var res *kmeans.Result
	d := tr.do("kmeans.Run", func() {
		res = kmeans.Run(x, kmeans.Seed(x, k, rand.New(rand.NewSource(seed))), 0, 0)
	})
	m["kmeans.run_ms"] = ms(d)
	m["kmeans.iters"] = float64(res.Iters)
}

// probeCheckpoint snapshots a solver 64 iterations in (the default
// cadence) and times the wire encoding the cluster streams per epoch.
func probeCheckpoint(tr *tracer, x *la.Matrix, y []float64, cfg smo.Config, m map[string]float64) error {
	s, err := smo.New(x, y, cfg, nil)
	if err != nil {
		return err
	}
	for i := 0; i < 64 && !s.Step(); i++ {
	}
	ck := s.Snapshot()
	const reps = 50
	var size int
	d := tr.do("smo.Checkpoint.Encode", func() {
		for r := 0; r < reps; r++ {
			size = len(ck.Encode())
		}
	})
	m["smo.ckpt_encode_us"] = us(d) / reps
	m["smo.ckpt_bytes"] = float64(size)
	return nil
}

func probeKernel(tr *tracer, x *la.Matrix, k kernel.Params, seed int64, m map[string]float64) {
	rows := pickRows(x, seed, probeRows)
	cache := kernel.NewRowCache(k, x, len(rows))
	d := tr.do("kernel.RowCache.Row(miss)", func() {
		for _, i := range rows {
			cache.Row(i)
		}
	})
	m["kernel.row_fill_us"] = us(d) / float64(len(rows))
	const hitRounds = 64
	d = tr.do("kernel.RowCache.Row(hit)", func() {
		for r := 0; r < hitRounds; r++ {
			for _, i := range rows {
				cache.Row(i)
			}
		}
	})
	m["kernel.row_hit_ns"] = float64(d.Nanoseconds()) / float64(hitRounds*len(rows))

	cache = kernel.NewRowCache(k, x, len(rows))
	pairs := len(rows) / 2
	d = tr.do("kernel.RowCache.PrefetchPair", func() {
		for p := 0; p < pairs; p++ {
			cache.PrefetchPair(rows[2*p], rows[2*p+1])
		}
	})
	m["kernel.prefetch_pair_us"] = us(d) / float64(pairs)

	tile := rows
	if len(tile) > 64 {
		tile = tile[:64]
	}
	cols := x.Rows()
	if cols > 256 {
		cols = 256
	}
	dst := make([]float64, len(tile)*cols)
	const tileReps = 20
	d = tr.do("kernel.CrossTile", func() {
		for r := 0; r < tileReps; r++ {
			k.CrossTile(x, tile, x, 0, cols, dst, cols)
		}
	})
	m["kernel.cross_tile_ns_per_elem"] = float64(d.Nanoseconds()) / float64(tileReps*len(tile)*cols)
}

var laSink float64

func probeLA(tr *tracer, x *la.Matrix, m map[string]float64) {
	n := x.Features()
	rows := x.Rows()
	if rows > 512 {
		rows = 512
	}
	a, b := make([]float64, n), make([]float64, n)
	x.RowInto(0, a)
	x.RowInto(1, b)
	const dotReps = 20000
	d := tr.do("la.Dot", func() {
		for r := 0; r < dotReps; r++ {
			laSink += la.Dot(a, b)
		}
	})
	m["la.dot_ns_per_flop"] = float64(d.Nanoseconds()) / float64(dotReps*2*n)

	if x.Sparse() {
		var nnz int
		const rounds = 20
		d = tr.do("la.SpDot", func() {
			for r := 0; r < rounds; r++ {
				for i := 0; i+1 < rows; i++ {
					ai, av := x.SparseRow(i)
					bi, bv := x.SparseRow(i + 1)
					laSink += la.SpDot(ai, av, bi, bv)
					nnz += len(ai) + len(bi)
				}
			}
		})
		m["la.spdot_ns_per_nnz"] = float64(d.Nanoseconds()) / float64(nnz)
	}

	cols := rows
	if cols > 256 {
		cols = 256
	}
	tile := make([]int, 64)
	if len(tile) > rows {
		tile = tile[:rows]
	}
	for i := range tile {
		tile[i] = i
	}
	var stored int // stored values of the tile rows: 2·stored·cols flops
	for _, i := range tile {
		if x.Sparse() {
			idx, _ := x.SparseRow(i)
			stored += len(idx)
		} else {
			stored += n
		}
	}
	dst := make([]float64, len(tile)*cols)
	const tileReps = 20
	d = tr.do("la.MulTile", func() {
		for r := 0; r < tileReps; r++ {
			la.MulTile(x, tile, x, 0, cols, dst, cols)
		}
	})
	m["la.multile_ns_per_flop"] = float64(d.Nanoseconds()) / float64(tileReps*2*stored*cols)
}

// probeMPI times an empty world and the two collectives Dis-SMO issues
// every iteration, on the workload's rank count and row width.
func probeMPI(tr *tracer, p, n int, params core.Params, quick bool, m map[string]float64) error {
	const spawns = 50
	var err error
	d := tr.do("mpi.World.Run(empty)", func() {
		for r := 0; r < spawns && err == nil; r++ {
			err = mpi.NewWorld(p, params.Machine, params.Seed).Run(func(*mpi.Comm) error { return nil })
		}
	})
	if err != nil {
		return err
	}
	m["mpi.world_spawn_us"] = us(d) / spawns

	calls := 2000
	if quick {
		calls = 200
	}
	collective := func(name string, f func(c *mpi.Comm, it int)) (float64, error) {
		var err error
		d := tr.do(name, func() {
			err = mpi.NewWorld(p, params.Machine, params.Seed).Run(func(c *mpi.Comm) error {
				for it := 0; it < calls; it++ {
					f(c, it)
				}
				return nil
			})
		})
		return (us(d) - m["mpi.world_spawn_us"]) / float64(calls), err
	}
	if m["mpi.allreduce_us"], err = collective("mpi.AllreduceMinLoc", func(c *mpi.Comm, it int) {
		c.AllreduceMinLoc(float64(c.Rank()), it)
	}); err != nil {
		return err
	}
	row := make([]float64, n+2)
	m["mpi.bcast_us"], err = collective("mpi.BcastF64", func(c *mpi.Comm, it int) {
		if owner := it % p; c.Rank() == owner {
			c.BcastF64(owner, row)
		} else {
			c.BcastF64(owner, nil)
		}
	})
	return err
}

// speedup2p runs f serially at one proc and with two threads at two procs,
// reps times each, and returns fastest serial ÷ fastest threaded. It records thread
// scaling; nothing gates it, because this host cannot resolve two-proc
// timings to a tenth (README, "Not gated").
func speedup2p(tr *tracer, name string, reps int, f func(threads int) error) (float64, error) {
	timeIt := func(procs int) (float64, error) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		t := make([]float64, 0, reps)
		var err error
		tr.do(fmt.Sprintf("%s(threads=%d)", name, procs), func() {
			for r := 0; r < reps && err == nil; r++ {
				s := time.Now()
				err = f(procs)
				t = append(t, ms(time.Since(s)))
			}
		})
		return quiet(t), err
	}
	serial, err := timeIt(1)
	if err != nil {
		return 0, err
	}
	threaded, err := timeIt(2)
	if err != nil {
		return 0, err
	}
	return serial / threaded, nil
}

func poolReps(quick bool) int {
	if quick {
		return 3
	}
	return 50
}

func probePoolSolve(tr *tracer, x *la.Matrix, y []float64, cfg smo.Config, quick bool, m map[string]float64) error {
	rows := make([]int, x.Rows())
	for i := range rows {
		rows[i] = i
	}
	if len(rows) > 256 { // keeps one solve at 2–15 ms
		rows = rows[:256]
	}
	sx := x.Subset(rows)
	sy := y[:len(rows)]
	var err error
	m["pool.solve_speedup_2p"], err = speedup2p(tr, "smo.Solve", poolReps(quick), func(threads int) error {
		c := cfg
		c.Threads = threads
		_, err := smo.Solve(sx, sy, c, nil)
		return err
	})
	return err
}

func probePoolPredict(tr *tracer, set *model.Set, q *la.Matrix, quick bool, m map[string]float64) error {
	rows := make([]int, 256)
	for i := range rows {
		rows[i] = i % q.Rows()
	}
	batch := q.Subset(rows)
	var err error
	m["pool.predict_all_speedup_2p"], err = speedup2p(tr, "model.Set.PredictAll", poolReps(quick), func(int) error {
		set.PredictAll(batch)
		return nil
	})
	return err
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// probeTCPMPI builds a 4-rank loopback mesh in this process and measures
// the constants of the paper's cost model on it: ts as an 8-byte ping-pong
// half round trip, tw from a 1 MB one-way transfer, and a 4-rank allreduce.
func probeTCPMPI(tr *tracer, quick bool, m map[string]float64) error {
	const ranks = 4
	pings, xfers, reduces := 400, 20, 200
	if quick {
		pings, xfers, reduces = 40, 4, 20
	}
	addrs, err := freeAddrs(ranks)
	if err != nil {
		return err
	}
	var dial, ping, xfer, reduce time.Duration
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	tr.do("tcpmpi.mesh", func() {
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				errs[rank] = func() error {
					t0 := time.Now()
					c, err := tcpmpi.Dial(rank, addrs)
					if err != nil {
						return err
					}
					defer c.Close()
					if rank == 0 {
						dial = time.Since(t0)
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					small, big := make([]byte, 8), make([]byte, 1<<20)
					t0 = time.Now()
					for i := 0; i < pings && rank < 2; i++ {
						if rank == 0 {
							if err := c.Send(1, 1, small); err != nil {
								return err
							}
							if _, err := c.Recv(1, 1); err != nil {
								return err
							}
						} else {
							if _, err := c.Recv(0, 1); err != nil {
								return err
							}
							if err := c.Send(0, 1, small); err != nil {
								return err
							}
						}
					}
					if rank == 0 {
						ping = time.Since(t0)
					}
					t0 = time.Now()
					for i := 0; i < xfers && rank < 2; i++ {
						if rank == 0 {
							if err := c.Send(1, 2, big); err != nil {
								return err
							}
						} else if _, err := c.Recv(0, 2); err != nil {
							return err
						}
					}
					if rank < 2 { // rank 1 acknowledges the last transfer
						if rank == 1 {
							if err := c.Send(0, 3, small); err != nil {
								return err
							}
						} else {
							if _, err := c.Recv(1, 3); err != nil {
								return err
							}
							xfer = time.Since(t0)
						}
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					t0 = time.Now()
					for i := 0; i < reduces; i++ {
						if _, err := c.AllreduceSum([]float64{float64(rank), 1}); err != nil {
							return err
						}
					}
					if rank == 0 {
						reduce = time.Since(t0)
					}
					return c.Barrier()
				}()
			}(r)
		}
		wg.Wait()
	})
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("tcpmpi probe rank %d: %w", r, err)
		}
	}
	m["tcpmpi.mesh_dial_ms"] = ms(dial)
	m["tcpmpi.pingpong_us"] = us(ping) / float64(2*pings)
	m["tcpmpi.bandwidth_mb_s"] = float64(xfers) * float64(1<<20) / 1e6 / xfer.Seconds()
	m["tcpmpi.allreduce_us"] = us(reduce) / float64(reduces)
	return nil
}
