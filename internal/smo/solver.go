// Package smo implements the Sequential Minimal Optimization solver
// (Alg 1 of the paper; Platt 1999 with Keerthi's dual-threshold
// working-set selection). It is the shared building block of every
// distributed method in internal/core: the paper stresses that all compared
// methods use the same shared-memory SMO underneath, and so does this
// repository.
//
// Every solve runs one loop, Solver.Run, and an Exchange is where solves
// differ. Solve's is the identity over the solver's own row cache;
// distributed SMO's is one allreduce per iteration (internal/core).
package smo

import (
	"errors"
	"fmt"
	"math"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/trace"
)

// Config carries the solver hyper-parameters.
type Config struct {
	// C is the regularization constant of eqn (2). Must be positive.
	C float64
	// Tol is the KKT tolerance ε; training stops when
	// bLow − bHigh < 2·Tol. Zero means the 1e-3 default.
	Tol float64
	// MaxIter caps iterations; 0 means 100·m + 10000 over the problem's
	// global m, mirroring common SMO implementations' safety limits.
	MaxIter int
	// CacheRows bounds the kernel-row LRU cache; 0 means min(m, 1024).
	CacheRows int
	// Kernel selects the kernel function.
	Kernel kernel.Params
	// Threads is accepted and ignored: the solver is serial, one goroutine
	// per rank. It survives only because the repository benchmark's probe
	// sets it; ROADMAP item 1 deletes the field together with that probe
	// line.
	Threads int
	// Interrupt, when non-nil, is polled with the iteration count before
	// every round of the loop; a non-nil return aborts the solve with that
	// error. Fault injection uses it to crash a rank at iteration k even
	// in training phases that never touch the network.
	Interrupt func(iter int) error
	// CheckpointEvery takes a state snapshot every this many iterations
	// (plus one final snapshot at convergence) and hands it to
	// CheckpointSink. 0 — the default — disables checkpointing entirely;
	// the loop then pays a single predictable branch per iteration
	// and the nil-sink hot paths stay allocation-free.
	CheckpointEvery int
	// CheckpointSink receives each snapshot. The snapshot owns its slices,
	// so the sink may retain or serialize it. It runs on the solver's
	// goroutine, before the Interrupt poll of the same iteration — a rank
	// crashed at iteration k has already deposited every checkpoint due at
	// or before k.
	CheckpointSink func(*Checkpoint)
	// Restore, when non-nil, resumes the solve from a snapshot instead of
	// starting at α = 0 (it overrides any warm start). A restored solver
	// replays the exact trajectory of the run that took the snapshot:
	// multipliers, f, iterations and bias are bit-identical to never having
	// stopped. Flop charges are not: the row cache starts cold, so rows the
	// interrupted run held are evaluated again. A Final snapshot
	// fast-forwards the whole solve.
	Restore *Checkpoint
	// Trace, when non-nil, records per-phase timeline spans (scan, update,
	// kernel-row fills) into the rank's recorder. Nil — the default — keeps
	// every instrumentation site on the zero-allocation nil-receiver fast
	// path; results are identical either way.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives solver counters at the end of the
	// loop (iterations, the exchange's cache hits/misses). Nil records
	// nothing.
	Metrics *trace.Registry
	// Telemetry, when non-nil, receives one IterSample per applied round
	// (dual objective, KKT gap, SV count) for live streaming. Nil — the
	// default — skips sampling entirely.
	Telemetry *TelemetryRing
	// TelemetryRank labels this solver's samples in the shared ring
	// (the mpi rank in distributed runs).
	TelemetryRank int

	// disableTilePrefetch turns off the pair prefetch that fills both
	// working-set kernel rows through one shared-streaming tile. Settable
	// only from package tests: the prefetched and unprefetched paths are
	// bit-identical, and the equivalence test needs both.
	disableTilePrefetch bool
}

func (c Config) tol() float64 {
	if c.Tol <= 0 {
		return 1e-3
	}
	return c.Tol
}

// Result reports a finished training run.
type Result struct {
	Alpha []float64 // Lagrange multipliers, length m
	B     float64   // bias (bHigh+bLow)/2; prediction is sign(Σ αyK − B)
	Iters int       // SMO iterations executed
	Flops float64   // flops spent (kernel rows + updates + scans)
	// Converged is false when MaxIter stopped the solver first.
	Converged bool
}

// Solver holds the mutable optimisation state for one training set.
type Solver struct {
	x   *la.Matrix
	y   []float64
	cfg Config

	alpha []float64
	f     []float64 // f_i of eqn (4)
	cache *kernel.RowCache

	// Keerthi working-set membership, kept where alpha is written (setMember)
	// instead of re-derived from (y, α, C) for all m on every scan:
	// outHigh[i] is 0 while i ∈ I_high and +Inf otherwise, outLow[i] likewise
	// for I_low, so a scan tests f_i + outHigh[i] < bHigh and
	// f_i − outLow[i] > bLow — a non-member never wins, a member compares
	// f_i itself.
	outHigh, outLow []float64

	iters int
	flops float64
	// drainedCache remembers how many cache flops TakeFlops has already
	// reported, since the cache counter is cumulative.
	drainedCache float64

	// Fused-iteration state: the working-set extremes computed by the last
	// fused update/scan pass (or cached from a plain scan), valid until
	// the next mutation of alpha or f. LocalExtremes serves from here when
	// valid, charging the same 2·m the scan it replaces would have, so flop
	// totals match the unfused seed exactly.
	ext      la.Extremes
	extValid bool

	// rec mirrors cfg.Trace for the hot paths; nil means every span call
	// is a single-branch no-op.
	rec *trace.Recorder

	// rows lists every local row, the tile rows of FillColumn's CrossTile;
	// built at the first call.
	rows []int
}

// New prepares a solver for the given samples and ±1 labels, optionally
// warm-started from inherited multipliers (warm may be nil; otherwise its
// length must equal x.Rows()). Warm starting rebuilds the f vector from the
// nonzero multipliers' kernel rows, which is how Cascade/DC layers inherit
// state.
func New(x *la.Matrix, y []float64, cfg Config, warm []float64) (*Solver, error) {
	m := x.Rows()
	if len(y) != m {
		return nil, fmt.Errorf("smo: %d samples but %d labels", m, len(y))
	}
	if cfg.C <= 0 {
		return nil, errors.New("smo: C must be positive")
	}
	if err := cfg.Kernel.Validate(); err != nil {
		return nil, err
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("smo: label[%d]=%v, want ±1", i, v)
		}
	}
	if warm != nil && len(warm) != m {
		return nil, fmt.Errorf("smo: warm start length %d, want %d", len(warm), m)
	}
	cacheRows := cfg.CacheRows
	if cacheRows <= 0 {
		cacheRows = 1024
		if m < cacheRows {
			cacheRows = m
		}
	}
	s := &Solver{
		x:       x,
		y:       y,
		cfg:     cfg,
		alpha:   make([]float64, m),
		f:       make([]float64, m),
		cache:   kernel.NewRowCache(cfg.Kernel, x, cacheRows),
		outHigh: make([]float64, m),
		outLow:  make([]float64, m),
		rec:     cfg.Trace,
	}
	s.cache.SetRecorder(cfg.Trace)
	// f_i = Σ_j α_j y_j K_ij − y_i ; with α = 0 this is just −y_i.
	for i := range s.f {
		s.f[i] = -y[i]
	}
	if cfg.Restore != nil {
		// Resuming from a snapshot: the checkpoint state supersedes any
		// warm start (the warm-start f rebuild would be discarded anyway).
		if err := s.restore(cfg.Restore); err != nil {
			return nil, err
		}
		return s, nil
	}
	if warm != nil {
		copy(s.alpha, warm)
		// Clip inherited multipliers into the feasible box; layer merges
		// can push them slightly outside after float32 wire transfer.
		for i := range s.alpha {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
			} else if s.alpha[i] > s.cfg.C {
				s.alpha[i] = s.cfg.C
			}
		}
	}
	for i := range s.alpha {
		s.setMember(i)
	}
	// The rows of the inherited support vectors come through the cache: they
	// are the likeliest first working set, so Solve finds them resident
	// instead of evaluating each a second time (beyond capacity they evict).
	for j, a := range s.alpha {
		if a == 0 {
			continue
		}
		la.Axpy(a*y[j], s.cache.Row(j), s.f)
		s.flops += float64(2 * m)
	}
	return s, nil
}

// Release gives the solver's kernel-row storage back to the chunk pool
// (kernel.RowCache.Release). Call it once nothing will read a kernel row
// again; the multipliers, f and the counters stay readable. A solver used
// after Release refills its rows from cold.
func (s *Solver) Release() { s.cache.Release() }

// Alpha returns the live multiplier vector (owned by the solver).
func (s *Solver) Alpha() []float64 { return s.alpha }

// setMember records sample i's membership in I_high and I_low from
// (y_i, α_i, C); every write to alpha[i] is followed by it. A multiplier
// that can still rise puts a positive sample in I_high and a negative one in
// I_low; one that can still fall, the other way round.
func (s *Solver) setMember(i int) {
	rise := outUnless(s.alpha[i] < s.cfg.C)
	fall := outUnless(s.alpha[i] > 0)
	if s.y[i] > 0 {
		s.outHigh[i], s.outLow[i] = rise, fall
	} else {
		s.outHigh[i], s.outLow[i] = fall, rise
	}
}

// outUnless is a membership array's entry: 0 for a member, +Inf otherwise.
func outUnless(member bool) float64 {
	if member {
		return 0
	}
	return math.Inf(1)
}

// LocalExtremes scans f for the working pair: bHigh = min f over I_high
// (index iHigh) and bLow = max f over I_low (index iLow). Empty sets yield
// +Inf/−Inf with index −1. The scan charges 2·m flops.
//
// When the fused update pass (or an earlier scan with no intervening
// mutation) already computed the extremes, they are served from cache —
// with the identical 2·m charge, so flop totals never depend on
// fusion.
func (s *Solver) LocalExtremes() (bHigh float64, iHigh int, bLow float64, iLow int) {
	n := len(s.f)
	if !s.extValid {
		sp := s.rec.Begin(trace.CatSolver, "scan")
		s.setExtremes(s.scanExtremes())
		s.rec.EndFlops(sp, float64(2*n))
	}
	s.flops += float64(2 * n)
	return s.ext.BHigh, s.ext.IHigh, s.ext.BLow, s.ext.ILow
}

// PairSolve computes the clipped two-variable SMO update of eqns (6)–(7) from
// the pair's labels, optimality values, current multipliers and kernel
// entries, returning (Δα_high, Δα_low) with both multipliers kept in the box
// [0, c]. It is a pure function so every rank of distributed SMO can evaluate
// the identical update from broadcast data.
func PairSolve(c, yh, yl, fh, fl, ah, al, khh, kll, khl float64) (dah, dal float64) {
	eta := khh + kll - 2*khl
	if eta <= 1e-12 {
		eta = 1e-12 // keep the step finite for degenerate pairs
	}
	// Unclipped step on α_low (eqn 6), then box constraints from the
	// equality Σαy = 0 restricted to the pair.
	alNew := al + yl*(fh-fl)/eta
	var lo, hi float64
	if yh != yl {
		// α_low − α_high is invariant.
		lo = math.Max(0, al-ah)
		hi = math.Min(c, c+al-ah)
	} else {
		// α_low + α_high is invariant.
		lo = math.Max(0, al+ah-c)
		hi = math.Min(c, al+ah)
	}
	if alNew < lo {
		alNew = lo
	} else if alNew > hi {
		alNew = hi
	}
	dal = alNew - al
	dah = -yl * yh * dal // eqn (7)
	return dah, dal
}

// snapTo collapses numerical dust at the box edges to exactly 0 or the
// bound c. Without it, a multiplier like 7e-18 keeps its index in the wrong
// Keerthi set and the maximal-violating-pair selection can stall on an
// update that rounds to zero.
func (s *Solver) snapTo(a, c float64) float64 {
	eps := 1e-12 * c
	if a < eps {
		return 0
	}
	if a > c-eps {
		return c
	}
	return a
}

// FillColumn computes the cross-kernel column of an external sample against
// the local block — dst[i] = K(x_i, ext_j), length M(), one CrossTile of the
// block against the sample's row — and charges its flops: the block's stored
// entries plus (nnz_j + 1)·m, nnz_j counting the sample's stored entries (its
// features when dense). ext must have the local block's storage (both dense
// or both sparse); Distributed SMO refuses any other row before it gets here.
// It calls FillColumn once per sample entering its replicated column cache;
// every later iteration that picks the sample reuses the column for free.
func (s *Solver) FillColumn(ext *la.Matrix, j int, dst []float64) {
	m := s.x.Rows()
	if s.rows == nil {
		s.rows = make([]int, m)
		for i := range s.rows {
			s.rows[i] = i
		}
	}
	s.cfg.Kernel.CrossTile(s.x, s.rows, ext, j, j+1, dst[:m], 1)
	nnzJ := ext.Features()
	if ext.Sparse() {
		ji, _ := ext.SparseRow(j)
		nnzJ = len(ji)
	}
	s.flops += float64(s.x.NNZ() + (nnzJ+1)*m)
}

// AddAlpha adds d to alpha[i], clipping to [0, C] and snapping edge dust.
func (s *Solver) AddAlpha(i int, d float64) {
	s.invalidateExtremes()
	a, c := s.alpha[i]+d, s.cfg.C
	s.alpha[i] = s.snapTo(math.Min(c, math.Max(0, a)), c)
	s.setMember(i)
}

// TakeFlops drains the solver's accumulated flop counter (including kernel
// cache misses) and returns it. Distributed callers feed this into the
// virtual clock after each phase.
func (s *Solver) TakeFlops() float64 {
	_, _, cacheFlops := s.cache.Stats()
	f := s.flops + cacheFlops - s.drainedCache
	s.drainedCache = cacheFlops
	s.flops = 0
	return f
}

// Bias returns the Keerthi bias estimate (bHigh+bLow)/2 from the current f.
func (s *Solver) Bias() float64 {
	bHigh, _, bLow, _ := s.LocalExtremes()
	return Threshold(bHigh, bLow)
}

// Threshold is the Keerthi bias (bHigh+bLow)/2, or the one finite side when
// the other set is empty (bHigh = +Inf, bLow = −Inf), or 0 for neither.
func Threshold(bHigh, bLow float64) float64 {
	switch {
	case math.IsInf(bHigh, 1) && math.IsInf(bLow, -1):
		return 0
	case math.IsInf(bHigh, 1):
		return bLow
	case math.IsInf(bLow, -1):
		return bHigh
	}
	return (bHigh + bLow) / 2
}
