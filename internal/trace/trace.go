// Package trace is the observability layer of the runtime. It collects the
// communication and time statistics the paper reports — the P×P
// point-to-point byte matrix of Fig 8, the operation counts and
// volume-per-operation of Table XI, and the per-rank computation /
// communication virtual-time split of Fig 9 — and grows them into a full
// instrumentation subsystem:
//
//   - Stats: atomic aggregate counters (bytes, ops, comp/comm virtual
//     time, flops, lost ranks), safe to read live while ranks run.
//   - Timeline/Recorder: per-rank span events (solver phases, collectives)
//     carrying wall and virtual time, exportable to Chrome trace_event
//     JSON for chrome://tracing and Perfetto (chrometrace.go).
//   - Registry: counters, gauges and fixed-bucket histograms with
//     Prometheus-style text exposition (metrics.go).
//   - Report: a structured machine-readable run summary (report.go).
//
// Everything is designed around a nil-sink fast path: a nil *Timeline,
// *Recorder, *Registry, *Counter, *Gauge or *Histogram turns every
// recording call into a cheap nil-check no-op with zero allocations, so
// instrumented hot paths cost nothing when observability is off.
package trace

import (
	"math"
	"sync/atomic"
)

// atomicFloat is a float64 with atomic add/load, stored as raw bits. Each
// accumulation site is owned by one goroutine almost all of the time, so
// the CAS loop virtually never spins.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicFloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }

// Stats accumulates communication statistics for one world of P ranks.
// Every slot is atomic, so Stats may be read at any time — including while
// rank goroutines are still running (live dashboards, metrics snapshots,
// and the degraded-mode completion path, which can inspect statistics
// for ranks that have crashed while survivors keep training).
type Stats struct {
	p     int
	bytes []atomic.Int64 // p×p matrix, row = sender, col = receiver
	ops   []atomic.Int64 // p×p matrix of message counts

	// Virtual time per rank, split by phase, plus the modeled flop count
	// behind the computation time. Written by the owning rank goroutine,
	// atomically, so concurrent readers see a coherent (if slightly stale)
	// value instead of a data race.
	compSec []atomicFloat
	commSec []atomicFloat
	flops   []atomicFloat

	// lost marks ranks that failed (crashed or errored) during the run —
	// the shards a degraded-mode completion proceeds without.
	lost []atomic.Bool
}

// NewStats creates statistics storage for p ranks.
func NewStats(p int) *Stats {
	return &Stats{
		p:       p,
		bytes:   make([]atomic.Int64, p*p),
		ops:     make([]atomic.Int64, p*p),
		compSec: make([]atomicFloat, p),
		commSec: make([]atomicFloat, p),
		flops:   make([]atomicFloat, p),
		lost:    make([]atomic.Bool, p),
	}
}

// RecordSend notes a transfer of n bytes from src to dst as one
// communication operation. Self-sends (src == dst) are local copies and are
// deliberately not counted, matching how MPI profilers count network
// traffic.
func (s *Stats) RecordSend(src, dst, n int) {
	if src == dst {
		return
	}
	s.bytes[src*s.p+dst].Add(int64(n))
	s.ops[src*s.p+dst].Add(1)
}

// RecordLost marks rank as failed during the run. The recovery supervisor
// reads it back through LostRanks to report which ranks were lost.
func (s *Stats) RecordLost(rank int) {
	if rank >= 0 && rank < s.p {
		s.lost[rank].Store(true)
	}
}

// LostRanks returns the sorted list of ranks recorded as failed (empty for
// a clean run).
func (s *Stats) LostRanks() []int {
	var out []int
	for r := range s.lost {
		if s.lost[r].Load() {
			out = append(out, r)
		}
	}
	return out
}

// AddComp charges sec seconds of computation virtual time to rank.
func (s *Stats) AddComp(rank int, sec float64) { s.compSec[rank].Add(sec) }

// AddComm charges sec seconds of communication virtual time to rank.
func (s *Stats) AddComm(rank int, sec float64) { s.commSec[rank].Add(sec) }

// AddFlops books f modeled floating-point operations to rank. The mpi
// layer calls it alongside AddComp whenever computation is charged from a
// flop count, so TotalFlops reproduces the analytic work term.
func (s *Stats) AddFlops(rank int, f float64) { s.flops[rank].Add(f) }

// CompSec returns rank's accumulated computation virtual time.
func (s *Stats) CompSec(rank int) float64 { return s.compSec[rank].Load() }

// CommSec returns rank's accumulated communication virtual time.
func (s *Stats) CommSec(rank int) float64 { return s.commSec[rank].Load() }

// TotalFlops returns the summed modeled flop count over all ranks. Flop
// accounting is deterministic (thread-count-invariant), so this is a
// reproducibility fingerprint of a run.
func (s *Stats) TotalFlops() float64 {
	var t float64
	for r := range s.flops {
		t += s.flops[r].Load()
	}
	return t
}

// Bytes returns the bytes sent from src to dst.
func (s *Stats) Bytes(src, dst int) int64 { return s.bytes[src*s.p+dst].Load() }

// Ops returns the number of messages sent from src to dst.
func (s *Stats) Ops(src, dst int) int64 { return s.ops[src*s.p+dst].Load() }

// Matrix returns a copy of the P×P byte matrix (Fig 8).
func (s *Stats) Matrix() [][]int64 {
	m := make([][]int64, s.p)
	for i := range m {
		m[i] = make([]int64, s.p)
		for j := range m[i] {
			m[i][j] = s.Bytes(i, j)
		}
	}
	return m
}

// TotalBytes returns the total bytes moved between distinct ranks.
func (s *Stats) TotalBytes() int64 {
	var t int64
	for i := range s.bytes {
		t += s.bytes[i].Load()
	}
	return t
}

// TotalOps returns the total number of messages between distinct ranks.
func (s *Stats) TotalOps() int64 {
	var t int64
	for i := range s.ops {
		t += s.ops[i].Load()
	}
	return t
}

// MaxCompSec returns the largest per-rank computation time — the
// critical-path compute term.
func (s *Stats) MaxCompSec() float64 {
	var m float64
	for r := range s.compSec {
		if v := s.compSec[r].Load(); v > m {
			m = v
		}
	}
	return m
}

// MaxCommSec returns the largest per-rank communication time.
func (s *Stats) MaxCommSec() float64 {
	var m float64
	for r := range s.commSec {
		if v := s.commSec[r].Load(); v > m {
			m = v
		}
	}
	return m
}

// CommRatio returns max-rank comm time / (comm + comp), the Fig 9 metric.
// It is 0 when nothing was recorded.
func (s *Stats) CommRatio() float64 {
	comm, comp := s.MaxCommSec(), s.MaxCompSec()
	if comm+comp == 0 {
		return 0
	}
	return comm / (comm + comp)
}
