// Package core implements the paper's distributed SVM training methods:
//
//	Dis-SMO   — Cao et al.'s distributed SMO (§II-B), the baseline
//	Cascade   — Graf et al.'s SV-filtering reduction tree (§II-C)
//	DC-SVM    — Hsieh et al.'s divide-and-conquer solver (§II-D)
//	DC-Filter — K-means partition + SV filter hybrid (§III-B)
//	CP-SVM    — clustering-partition SVM with independent models (§IV-A)
//	CA-SVM    — the communication-avoiding family (§IV-B):
//	            FCFS-CA, BKM-CA and RA-CA
//
// Every method runs on the internal/mpi substrate, uses the same
// internal/smo solver underneath (as the paper's evaluation does), and
// reports the same statistics the paper's tables need: iterations, init and
// training virtual time, per-layer profiles, and communication volumes.
package core

import (
	"errors"
	"fmt"
	"time"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
	"casvm/internal/smo"
	"casvm/internal/trace"
)

// Method names a training algorithm.
type Method string

// The eight trainable methods (three of them CA-SVM variants).
const (
	MethodDisSMO   Method = "dissmo"
	MethodCascade  Method = "cascade"
	MethodDCSVM    Method = "dcsvm"
	MethodDCFilter Method = "dcfilter"
	MethodCPSVM    Method = "cpsvm"
	MethodBKMCA    Method = "bkm-ca"
	MethodFCFSCA   Method = "fcfs-ca"
	MethodRACA     Method = "ra-ca" // RA-CA is what the paper calls CA-SVM
)

// Methods lists every method in presentation order (the row order of
// Tables XIII–XVIII).
func Methods() []Method {
	return []Method{MethodDisSMO, MethodCascade, MethodDCSVM, MethodDCFilter,
		MethodCPSVM, MethodBKMCA, MethodFCFSCA, MethodRACA}
}

// ParseMethod resolves a method name.
func ParseMethod(s string) (Method, error) {
	for _, m := range Methods() {
		if string(m) == s {
			return m, nil
		}
	}
	return "", fmt.Errorf("core: unknown method %q", s)
}

// Placement selects where the input data starts (Fig 9's casvm1 vs casvm2).
type Placement int

const (
	// PlacementDistributed (casvm2) assumes each node already holds its
	// block; CA-SVM then needs no communication at all.
	PlacementDistributed Placement = iota
	// PlacementRoot (casvm1) starts with all data on rank 0, which must
	// scatter it. The non-CA methods always behave this way, matching the
	// distribution terms in the paper's Table X volume formulas.
	PlacementRoot
)

// Params configures a training run.
type Params struct {
	Method Method
	P      int // number of ranks (nodes)

	C       float64
	Tol     float64
	MaxIter int // per-solver iteration cap; 0 = default
	Kernel  kernel.Params

	Machine perfmodel.Machine
	Seed    int64

	// Placement applies to the CA-SVM variants (casvm1 vs casvm2); other
	// methods always start from root.
	Placement Placement

	// RatioBalanced applies the pos/neg class balancing of §IV-B1 to
	// FCFS-CA and BKM-CA. Tables VIII–IX use it; defaults to true via
	// DefaultParams.
	RatioBalanced bool

	// Faults installs a fault injector for chaos testing (usually a
	// *faults.ScheduleInjector): its transport hook intercepts every remote
	// message, and CrashCheck is polled by the training loops so a rank
	// can be killed at iteration k even during the zero-communication
	// CA-SVM training phase.
	Faults FaultInjector

	// Timeline, when non-nil (sized to P, trace.NewTimeline(P)), records
	// per-rank span events: every collective, the partition/solve phases,
	// and the solver's scan/update/row-fill internals, each with
	// wall and (where tracked) virtual time. Export with
	// Timeline.WriteChromeTrace for chrome://tracing / Perfetto. Nil — the
	// default — keeps all instrumentation on its zero-allocation path.
	Timeline *trace.Timeline

	// Metrics, when non-nil, receives run counters and histograms
	// (solver iterations, row-cache hits/misses). Expose it via
	// Registry.WriteProm. Nil records nothing.
	Metrics *trace.Registry

	// Recovery enables checkpoint/restart: solver state is snapshotted
	// every CheckpointEvery iterations and a rank crash triggers a
	// supervised restart (respawn at full width, or shrink onto the
	// survivors) resuming from the last consistent checkpoint, instead of
	// failing fast. See recovery.go.
	Recovery Recovery

	// rt is the per-Train recovery runtime the supervisor threads into the
	// method implementations (nil when Recovery.Policy is off).
	rt *recoveryRuntime

	// shard is RunShard's checkpoint/interrupt wiring for the rank's local
	// solve (nil everywhere else).
	shard *ShardRun

	// colCacheRows overrides the capacity of Dis-SMO's replicated column
	// cache (0 = min(m, 1024)). Settable only from package tests: the model
	// is bit-identical at every capacity ≥ 2, and the invariance test needs
	// several.
	colCacheRows int

	// Telemetry, when non-nil, receives one sample per solver iteration
	// from every rank (dual objective, KKT gap, SV count) — the
	// live-convergence stream served by the `-serve` telemetry server. Nil
	// records nothing.
	Telemetry *smo.TelemetryRing
}

// FaultInjector is what Params.Faults accepts: a transport hook for
// message-level faults plus an iteration-crash check for compute-phase
// faults. faults.ScheduleInjector implements it.
type FaultInjector interface {
	mpi.TransportHook
	CrashCheck(rank, iter int) error
}

// IndependentModels reports whether the method trains one independent
// model per rank (so losing a rank costs one shard, not the run).
func (m Method) IndependentModels() bool {
	switch m {
	case MethodCPSVM, MethodBKMCA, MethodFCFSCA, MethodRACA:
		return true
	}
	return false
}

// DefaultParams returns a ready-to-use parameter set for the given method
// and rank count with Hopper-like machine constants.
func DefaultParams(m Method, p int) Params {
	return Params{
		Method:        m,
		P:             p,
		C:             1,
		Tol:           1e-3,
		Kernel:        kernel.RBF(0.05),
		Machine:       perfmodel.Hopper(),
		Seed:          1,
		RatioBalanced: true,
	}
}

func (p Params) validate(x *la.Matrix, y []float64) error {
	if x == nil || x.Rows() != len(y) {
		return errors.New("core: samples and labels disagree")
	}
	m := x.Rows()
	if p.P < 1 {
		return fmt.Errorf("core: P=%d", p.P)
	}
	if m < p.P {
		return fmt.Errorf("core: %d samples cannot feed %d ranks", m, p.P)
	}
	if p.C <= 0 {
		return fmt.Errorf("core: C=%v", p.C)
	}
	if _, err := ParseMethod(string(p.Method)); err != nil {
		return err
	}
	return p.Kernel.Validate()
}

func (p Params) solverConfig() smo.Config {
	return smo.Config{C: p.C, Tol: p.Tol, MaxIter: p.MaxIter, Kernel: p.Kernel}
}

// NodeStat profiles one node's work within a layer (the rows of Table V).
type NodeStat struct {
	Rank    int
	Samples int
	Iters   int
	SVs     int
	Time    float64 // virtual seconds spent by this node in the layer
}

// LayerStat profiles one layer of a tree method (Table V).
type LayerStat struct {
	Layer int
	Nodes []NodeStat
}

// MaxTime returns the slowest node's time in the layer.
func (l LayerStat) MaxTime() float64 {
	var t float64
	for _, n := range l.Nodes {
		if n.Time > t {
			t = n.Time
		}
	}
	return t
}

// MaxIters returns the largest per-node iteration count in the layer.
func (l LayerStat) MaxIters() int {
	var t int
	for _, n := range l.Nodes {
		if n.Iters > t {
			t = n.Iters
		}
	}
	return t
}

// SumSVs returns the layer's total surviving support vectors.
func (l LayerStat) SumSVs() int {
	t := 0
	for _, n := range l.Nodes {
		t += n.SVs
	}
	return t
}

// Stats aggregates everything a training run measured.
type Stats struct {
	Method Method
	P      int

	// Iters is the critical-path iteration count: the global count for
	// Dis-SMO, the sum over layers of the per-layer maximum for tree
	// methods, and the maximum over nodes for the independent methods.
	Iters int
	// SVs is the support-vector count of the final model (set).
	SVs int

	// InitSec is the virtual time of partitioning (K-means, FCFS, …) and
	// initial data movement; TrainSec the virtual time of SVM training;
	// TotalSec their critical-path total (max final clock).
	InitSec  float64
	TrainSec float64
	TotalSec float64

	// Wall is the real elapsed time of the simulation (for reference
	// only; the paper-comparable number is TotalSec).
	Wall time.Duration

	// KMeansIters is the partition K-means sweep count (0 when unused).
	KMeansIters int

	// Layers holds the per-layer profile for tree methods (Table V).
	Layers []LayerStat

	// Communication, from trace.Stats: total bytes, message count, the
	// P×P byte matrix (Fig 8), and the max-rank comm/comp split (Fig 9).
	CommBytes  int64
	CommOps    int64
	CommMatrix [][]int64
	CommSec    float64
	CompSec    float64

	// ColCacheHits and ColCacheMisses count lookups in Dis-SMO's replicated
	// kernel-column cache (two per iteration, identical on every rank; zero
	// for other methods). A miss is a sample's first use or its return
	// after eviction: the only times its row crosses the wire and its
	// column is computed.
	ColCacheHits   int64
	ColCacheMisses int64

	// TotalFlops is the summed modeled flop count over all ranks. Flop
	// accounting is deterministic, so it doubles as a reproducibility
	// fingerprint of the run.
	TotalFlops float64

	// PartSizes are the per-node sample counts after partitioning
	// (Fig 5), and NodeTrainSec the per-node training time (Fig 7).
	PartSizes    []int
	NodeTrainSec []float64
	NodeIters    []int

	// Per-node class structure for the partitioned methods: positive and
	// negative sample counts and positive/negative support-vector counts
	// (Tables VII–VIII).
	NodePos   []int
	NodeNeg   []int
	NodeSVPos []int
	NodeSVNeg []int

	// LostRanks lists the ranks that crashed during the run and were
	// recovered from (from trace.Stats, as original rank ids); empty for a
	// clean run.
	LostRanks []int

	// Recoveries counts supervised restarts (crash → checkpoint resume);
	// RecoverySec is the virtual time those restarts cost — lost re-work
	// plus restart penalties — already included in TotalSec.
	Recoveries  int
	RecoverySec float64
}

// Output bundles the trained model set with the run statistics.
type Output struct {
	Set   *model.Set
	Stats Stats
}

// fillClassCounts records the partition's class structure and, given the
// solved multipliers, the per-class support-vector counts.
func (out *ShardResult) fillClassCounts(y, alpha []float64) {
	for i, v := range y {
		if v > 0 {
			out.pos++
			if alpha[i] > 0 {
				out.svPos++
			}
		} else {
			out.neg++
			if alpha[i] > 0 {
				out.svNeg++
			}
		}
	}
}

func fillCommStats(st *Stats, ts *trace.Stats) {
	st.CommBytes = ts.TotalBytes()
	st.CommOps = ts.TotalOps()
	st.CommMatrix = ts.Matrix()
	st.CommSec = ts.MaxCommSec()
	st.CompSec = ts.MaxCompSec()
	st.TotalFlops = ts.TotalFlops()
	st.LostRanks = ts.LostRanks()
}

// evenBlocks splits m samples into P nearly-even contiguous blocks and
// returns the row-index slices.
func evenBlocks(m, p int) [][]int {
	out := make([][]int, p)
	base := m / p
	rem := m % p
	start := 0
	for r := 0; r < p; r++ {
		size := base
		if r < rem {
			size++
		}
		rows := make([]int, size)
		for i := range rows {
			rows[i] = start + i
		}
		start += size
		out[r] = rows
	}
	return out
}

// localModel builds a model from a rank's solved problem.
func localModel(x *la.Matrix, y []float64, res *smo.Result, k kernel.Params) *model.Model {
	return model.FromSolution(x, y, res.Alpha, res.B, k)
}
