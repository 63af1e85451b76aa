package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"casvm/internal/la"
)

// instance is one set-up workload: a system under test plus everything the
// generator needs to drive and check it.
type instance interface {
	// run performs op i on behalf of client c and returns its raw output.
	// Only this call is timed.
	run(c, i int) (any, error)
	// check verifies the output of op i after the clock has stopped.
	check(i int, out any) error
	// accuracyPct is the accuracy_pct of the ops checked so far.
	accuracyPct() float64
	// replay repeats op i stage by stage through the layer APIs, one span
	// per stage (traced run only).
	replay(tr *tracer, i int, out any) error
	// probe measures the layers this workload exercises in isolation and
	// reports its set-up's counters (traced run only).
	probe(tr *tracer, quick bool, m map[string]float64) error
	close()
}

// samples is what one measured run collects.
type samples struct {
	opMs       []float64     // wall time of every timed op
	blockMs    []float64     // wall time per op of one client, one value per block
	blockCPUMs []float64     // process CPU per op, one value per block
	calibMs    []float64     // host calibration around each block (mean of before and after)
	allocBytes uint64        // heap bytes allocated inside the timed blocks
	elapsed    time.Duration // wall time inside the timed blocks
	ops        int           // timed ops
	attempted  int           // timed ops plus warm-up
	failed     int
}

// The calibration loop: calibVecLen × calibReps multiply-adds, run before and
// after every block and every set-up. calibRefMs is what it takes on a quiet
// core of this host. The host runs at several speeds for seconds or minutes
// at a time (the loop reads 1.15, 1.55, 2.05 or 2.6 ms), so every gated timing
// is reported as it would have been at the reference speed: see atRefSpeed.
// The loop and the constant are fixed so that two result files compare.
const (
	calibVecLen = 4096
	calibReps   = 1000
	calibRefMs  = 1.15
)

var calibA, calibB = func() ([]float64, []float64) {
	a, b := make([]float64, calibVecLen), make([]float64, calibVecLen)
	for i := range a {
		a[i], b[i] = float64(i%7)+0.5, float64(i%5)-1.5
	}
	return a, b
}()

var calibSink float64

func calibrate() float64 {
	s := time.Now()
	for r := 0; r < calibReps; r++ {
		calibSink += la.Dot(calibA, calibB)
	}
	return ms(time.Since(s))
}

// atRefSpeed restates a stretch of work that took wallMs, cpuMs of it on the
// CPU, while the calibration loop took calibMs: the time on the CPU shrinks
// to what it would have been with the loop at calibRefMs, the time spent
// waiting (timers, sockets) stays as it was.
func atRefSpeed(wallMs, cpuMs, calibMs float64) float64 {
	return wallMs - cpuMs*(1-calibRefMs/calibMs)
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocNow() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// measure drives inst closed-loop: a discarded warm-up, one GC, then ops
// timed ops in blocks of w.block ops per client, every client waiting for
// its reply before sending again. CPU, allocation and the host's speed are
// sampled around each block; outputs are checked after the block's samples are taken, so the
// checker's own work is in neither. With a tracer (single client only: the
// tracer is not shared between goroutines) every op gets a span and is
// followed by its staged replay. between, if set, is called betweens times
// at block boundaries spread evenly over the run (the repeated set-ups).
func measure(inst instance, w *workload, ops int, tr *tracer, between func(), betweens int) samples {
	var s samples
	perBlock := w.block * w.clients
	nBlocks := (ops + perBlock - 1) / perBlock
	s.ops = nBlocks * perBlock

	warm := s.ops / 20
	if warm < 5 {
		warm = 5
	}
	for i := -warm; i < 0; i++ { // ops before 0 are warm-up
		out, err := inst.run(0, i)
		if err == nil {
			err = inst.check(i, out)
		}
		s.attempted++
		if err != nil {
			s.failed++
			logf("%s: warm-up op %d failed: %v", w.name, i, err)
		}
	}
	runtime.GC()

	outs := make([]any, perBlock)
	errs := make([]error, perBlock)
	wall := make([]time.Duration, perBlock)
	opSpan := w.name + ".op"
	one := func(c, k, base int) {
		slot := k*w.clients + c
		i := base + slot
		tr.setOp(i)
		wall[slot] = tr.do(opSpan, func() { outs[slot], errs[slot] = inst.run(c, i) })
	}
	gap := nBlocks / (betweens + 1)
	for b := 0; b < nBlocks; b++ {
		if between != nil && gap > 0 && b > 0 && b%gap == 0 && b/gap <= betweens {
			between()
		}
		base := b * perBlock
		calib := calibrate()
		cpu0, alloc0, t0 := cpuNow(), allocNow(), time.Now()
		if w.clients == 1 {
			for k := 0; k < w.block; k++ {
				one(0, k, base)
			}
		} else {
			var wg sync.WaitGroup
			for c := 0; c < w.clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for k := 0; k < w.block; k++ {
						one(c, k, base)
					}
				}(c)
			}
			wg.Wait()
		}
		wallBlock := time.Since(t0)
		cpu := cpuNow() - cpu0
		s.allocBytes += allocNow() - alloc0
		calib = (calib + calibrate()) / 2
		s.elapsed += wallBlock
		s.blockMs = append(s.blockMs, ms(wallBlock)/float64(w.block))
		s.blockCPUMs = append(s.blockCPUMs, ms(cpu)/float64(perBlock))
		s.calibMs = append(s.calibMs, calib)
		for slot := range outs {
			i := base + slot
			s.opMs = append(s.opMs, ms(wall[slot]))
			err := errs[slot]
			if err == nil {
				err = inst.check(i, outs[slot])
			}
			s.attempted++
			if err != nil {
				s.failed++
				logf("%s: op %d failed: %v", w.name, i, err)
			} else if tr != nil {
				tr.setOp(i)
				if err := inst.replay(tr, i, outs[slot]); err != nil {
					s.failed++
					logf("%s: replay of op %d failed: %v", w.name, i, err)
				}
			}
			outs[slot] = nil
		}
	}
	return s
}
