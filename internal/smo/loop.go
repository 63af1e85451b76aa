package smo

import (
	"casvm/internal/la"
	"casvm/internal/trace"
)

// Exchange is the seam between solves: it turns this rank's working-set
// candidates into the global pair. The serial solve's exchange is the
// identity (localPair); Dis-SMO's runs one allreduce (internal/core). Its
// halves are split so that a distributed exchange fetches no kernel columns
// on the round that stops.
type Exchange interface {
	// Select returns the global (high, low) pair given this rank's own
	// extremes. iter is the round's iteration count.
	Select(iter int, high, low Side) (Side, Side, error)
	// Columns returns the kernel values of the pair the last Select chose.
	// The loop calls it only once the stop test has passed.
	Columns() (Pair, error)
	// Applied runs after the round's f-update.
	Applied()
	// Stats reports the hits and misses of the cache the pair's columns
	// come from, for the solver metrics.
	Stats() (hits, misses int64)
}

// Side is one half of a working pair as this rank sees it.
type Side struct {
	F     float64 // the sample's f value: bHigh or bLow
	Alpha float64 // its multiplier
	Y     float64 // its label, ±1; 0 when the side's Keerthi set is empty
	Row   int     // its row in this rank's block, −1 when another rank owns it
}

// Pair is the working pair's kernel entries and its two kernel columns
// against this rank's block.
type Pair struct {
	Khh, Kll, Khl float64
	ColH, ColL    []float64
}

// Solve runs SMO to convergence and returns the result. x and y are as in
// New.
func Solve(x *la.Matrix, y []float64, cfg Config, warm []float64) (*Result, error) {
	s, err := New(x, y, cfg, warm)
	if err != nil {
		return nil, err
	}
	return s.Run((*localPair)(s), x.Rows())
}

// Step runs one round of the serial solve. It returns done=true when the
// stop test or the stuck-pair guard ended the solve (in which case no update
// was applied).
func (s *Solver) Step() (done bool) {
	done, _ = s.round((*localPair)(s))
	return done
}

// Run is the SMO loop (Alg 1) of every solve, serial or distributed: it
// runs rounds over ex until the stop test, the stuck guard or MaxIter ends
// the solve, and releases the solver's kernel rows on every exit. m is the
// problem's global sample count, which sizes the MaxIter default.
func (s *Solver) Run(ex Exchange, m int) (*Result, error) {
	defer s.Release()
	cfg := s.cfg
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 100*m + 10000
	}
	// A Final snapshot was taken after convergence: fast-forward. The bias
	// below reads the restored f, so the result matches the original solve.
	final := cfg.Restore != nil && cfg.Restore.Final
	converged := final
	lastCkpt := -1
	if cfg.Restore != nil {
		lastCkpt = cfg.Restore.Iters // don't immediately re-deposit the restore point
	}
	ckpt := cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil
	for !converged && s.iters < maxIter {
		if ckpt && s.iters > 0 && s.iters%cfg.CheckpointEvery == 0 && s.iters != lastCkpt {
			lastCkpt = s.iters
			cfg.CheckpointSink(s.Snapshot())
		}
		if cfg.Interrupt != nil {
			if err := cfg.Interrupt(s.iters); err != nil {
				return nil, err
			}
		}
		var err error
		if converged, err = s.round(ex); err != nil {
			return nil, err
		}
		if !converged && cfg.Telemetry != nil {
			s.sampleTelemetry()
		}
	}
	if converged && ckpt && !final {
		// Final snapshot: a replay after a later crash skips this solve.
		ck := s.Snapshot()
		ck.Final = true
		cfg.CheckpointSink(ck)
	}
	b := s.Bias()
	s.recordMetrics(ex)
	return &Result{Alpha: s.alpha, B: b, Iters: s.iters, Flops: s.TakeFlops(), Converged: converged}, nil
}

// round runs one iteration over ex. done reports that the stop test or the
// stuck guard ended the solve; nothing was applied then.
func (s *Solver) round(ex Exchange) (done bool, err error) {
	bHigh, iHigh, bLow, iLow := s.LocalExtremes()
	high, low, err := ex.Select(s.iters, s.side(bHigh, iHigh), s.side(bLow, iLow))
	if err != nil {
		return false, err
	}
	if high.Y == 0 || low.Y == 0 || low.F-high.F < 2*s.cfg.tol() {
		return true, nil
	}
	k, err := ex.Columns()
	if err != nil {
		return false, err
	}
	dah, dal := PairSolve(s.cfg.C, high.Y, low.Y, high.F, low.F, high.Alpha, low.Alpha, k.Khh, k.Kll, k.Khl)
	if dah == 0 && dal == 0 {
		return true, nil // the maximal violating pair cannot move: numerically stuck
	}
	if high.Row >= 0 {
		s.AddAlpha(high.Row, dah)
	}
	if low.Row >= 0 {
		s.AddAlpha(low.Row, dal)
	}
	sp := s.rec.Begin(trace.CatSolver, "update")
	s.updateScan(k.ColH, k.ColL, dah*high.Y, dal*low.Y)
	s.rec.End(sp)
	ex.Applied()
	s.iters++
	return false, nil
}

// side describes local row i with f value f; i < 0 is an empty side.
func (s *Solver) side(f float64, i int) Side {
	if i < 0 {
		return Side{F: f, Row: -1}
	}
	return Side{F: f, Alpha: s.alpha[i], Y: s.y[i], Row: i}
}

// recordMetrics publishes end-of-solve counters (iterations, and the hits
// and misses of the exchange's cache — the hit rate is their ratio) into
// cfg.Metrics; a nil registry records nothing.
func (s *Solver) recordMetrics(ex Exchange) {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	hits, misses := ex.Stats()
	reg.Counter("smo_iterations_total", "SMO iterations executed").Add(int64(s.iters))
	reg.Counter("smo_row_cache_hits_total", "kernel row-cache hits").Add(hits)
	reg.Counter("smo_row_cache_misses_total", "kernel row-cache misses").Add(misses)
}

// localPair is the identity exchange, the solver itself: on one rank the
// local extremes are the global pair, and its columns are the pair's rows in
// the solver's row cache. Filling any misses through one tile
// (PrefetchPair) streams the training matrix once for the pair; cache state
// and flops are those of the demand fills.
type localPair Solver

func (*localPair) Select(_ int, high, low Side) (Side, Side, error) { return high, low, nil }

func (l *localPair) Columns() (Pair, error) {
	s := (*Solver)(l)
	i, j := s.ext.IHigh, s.ext.ILow // the round's scan, cached until the update
	if !s.cfg.disableTilePrefetch {
		s.cache.PrefetchPair(i, j)
	}
	rh, rl := s.cache.Row(i), s.cache.Row(j)
	return Pair{Khh: s.cache.Diag(i), Kll: s.cache.Diag(j), Khl: rh[j], ColH: rh, ColL: rl}, nil
}

func (*localPair) Applied() {}

func (l *localPair) Stats() (hits, misses int64) {
	hits, misses, _ = l.cache.Stats()
	return hits, misses
}
