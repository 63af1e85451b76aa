package core

import (
	"errors"
	"fmt"
	"time"

	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/trace"
)

// Train runs the configured method on (x, y) and returns the trained model
// set plus the run statistics. Labels must be ±1.
//
// Without a recovery policy this is one world, one attempt: a rank crash
// fails the run (or degrades it, when Params.Degraded elects that for the
// independent-model methods). With Params.Recovery.Policy set, Train
// supervises: crashes trigger checkpointed restarts — at full width
// (respawn) or shrunk onto the survivors — until the run completes or the
// restart budget is spent.
func Train(x *la.Matrix, y []float64, p Params) (*Output, error) {
	if x == nil || x.Rows() != len(y) {
		return nil, errors.New("core: samples and labels disagree")
	}
	if err := p.validate(x.Rows()); err != nil {
		return nil, err
	}
	if p.Recovery.Policy == RecoverOff {
		out, _, err := runAttempt(x, y, p, 0)
		return out, err
	}
	return trainSupervised(x, y, p)
}

// trainSupervised is the checkpoint/restart supervisor: it runs attempts,
// prices each failure into the next attempt's base clock, and resumes from
// the store's last consistent checkpoint. Deterministic re-execution (same
// seed, same partitioning) makes the (rank, solve-sequence) checkpoint keys
// line up across attempts, so only solver state needs carrying over.
func trainSupervised(x *la.Matrix, y []float64, p Params) (*Output, error) {
	rec := p.Recovery
	rt := &recoveryRuntime{
		store:   newCkptStore(x.Rows()),
		every:   rec.every(),
		machine: p.Machine,
		tl:      p.Timeline,
		metrics: p.Metrics,
	}
	pp := p
	pp.rt = rt
	// The supervisor owns crash handling; in-attempt degraded completion
	// would swallow the crash before the restart loop could act on it.
	pp.Degraded = false

	origID := make([]int, p.P) // current rank index -> original rank id
	for i := range origID {
		origID[i] = i
	}
	nextID := p.P // fresh original ids for ranks joining mid-run
	var lostOrig []int
	base := 0.0
	recoveries := 0
	grows, joined := 0, 0
	// maxGrows bounds elastic scale-ups separately from the crash-restart
	// budget: joins are cooperative and one-shot, so the bound is a backstop
	// against a misbehaving membership source, not a retry budget.
	const maxGrows = 32
	// Failed attempts' measured work, folded into the final run's stats so
	// recovery overhead is visible, not vanished.
	var extra Stats

	for {
		rt.resetSeqs(pp.P)
		out, world, err := runAttempt(x, y, pp, base)
		if err == nil {
			st := &out.Stats
			st.Recoveries = recoveries
			st.RecoverySec = base
			st.Grows = grows
			st.JoinedRanks = joined
			st.LostRanks = append(append([]int{}, lostOrig...), st.LostRanks...)
			st.CommBytes += extra.CommBytes
			st.CommOps += extra.CommOps
			st.TotalFlops += extra.TotalFlops
			st.CommSec += extra.CommSec
			st.CompSec += extra.CompSec
			return out, nil
		}
		// A crash outranks a cooperative resize when both race within one
		// attempt: the lost rank must be accounted before any grow.
		var crash *mpi.CrashError
		var resize *mpi.ResizeError
		isCrash := errors.As(err, &crash)
		isResize := !isCrash && errors.As(err, &resize)
		if !isCrash && !isResize {
			return nil, err // genuine algorithmic failure: not recoverable
		}
		if isCrash && recoveries >= rec.maxRestarts() {
			return nil, fmt.Errorf("core: recovery budget exhausted after %d restarts: %w",
				recoveries, err)
		}
		if isResize && grows >= maxGrows {
			return nil, fmt.Errorf("core: elastic grow budget exhausted after %d grows: %w",
				grows, err)
		}

		// Price the lost attempt: its work (MaxClock includes the base it
		// started from) plus the modeled relaunch penalty becomes the next
		// attempt's virtual-time origin. A grow pays the same relaunch
		// penalty — the world is torn down and rebuilt either way.
		failClock := world.MaxClock()
		if failClock < base {
			failClock = base
		}
		newBase := failClock + rec.penalty()

		ws := world.Stats()
		extra.CommBytes += ws.TotalBytes()
		extra.CommOps += ws.TotalOps()
		extra.TotalFlops += ws.TotalFlops()
		extra.CommSec += ws.MaxCommSec()
		extra.CompSec += ws.MaxCompSec()

		lost := ws.LostRanks()
		for _, l := range lost {
			if l >= 0 && l < len(origID) {
				lostOrig = append(lostOrig, origID[l])
			}
		}
		if isCrash && rec.Policy == RecoverShrink {
			if pp.P-len(lost) < 1 {
				return nil, fmt.Errorf("core: no survivors to shrink onto: %w", err)
			}
			dead := map[int]bool{}
			for _, l := range lost {
				dead[l] = true
			}
			survivors := origID[:0]
			for i, id := range origID {
				if !dead[i] {
					survivors = append(survivors, id)
				}
			}
			origID = survivors
			pp.P = len(origID)
			// Re-partitioned shards invalidate every (rank, seq) snapshot;
			// Dis-SMO's global-row-space epochs survive the re-slice.
			rt.store.dropLocal()
		}
		if isResize {
			// Elastic scale-up: widen the world by the joined workers,
			// bounded by the sample count (a rank needs at least one row).
			delta := resize.Delta
			if room := x.Rows() - pp.P; delta > room {
				delta = room
			}
			for i := 0; i < delta; i++ {
				origID = append(origID, nextID)
				nextID++
			}
			pp.P = len(origID)
			// Narrower shards invalidate every (rank, seq) snapshot, same as
			// shrink; Dis-SMO's global-row-space epochs re-slice over the
			// wider block layout.
			rt.store.dropLocal()
			grows++
			joined += delta
		}

		spanName := "recovery:" + string(rec.Policy)
		if isResize {
			spanName = "recovery:grow"
		} else {
			recoveries++
		}
		if r0 := p.Timeline.Rank(0); r0 != nil {
			sp := r0.BeginVirt(trace.CatRecovery, spanName, failClock)
			r0.EndVirt(sp, newBase)
		}
		if p.Metrics != nil {
			if isResize {
				p.Metrics.Counter("casvm_grows_total", "elastic world scale-ups").Inc()
				p.Metrics.Counter("casvm_grow_ranks_total", "ranks added by elastic scale-ups").
					Add(int64(resize.Delta))
			} else {
				p.Metrics.Counter("casvm_recoveries_total", "supervised crash recoveries").Inc()
				p.Metrics.Counter("casvm_recovery_lost_ranks_total", "ranks lost across recoveries").
					Add(int64(len(lost)))
			}
		}
		base = newBase
	}
}

// runAttempt executes the method once on a fresh world of p.P ranks whose
// virtual clocks start at base, and returns the assembled output, the world
// (for the supervisor's post-mortem on failure), and the first error.
func runAttempt(x *la.Matrix, y []float64, p Params, base float64) (*Output, *mpi.World, error) {
	world := mpi.NewWorld(p.P, p.Machine, p.Seed)
	world.SetBaseClock(base)
	if p.Faults != nil {
		world.SetTransportHook(p.Faults)
	}
	world.SetTimeline(p.Timeline)
	results := make([]rankResult, p.P)
	lc := newLayerCollector()

	wall0 := time.Now()
	err := world.Run(func(c *mpi.Comm) error {
		out := &results[c.Rank()]
		switch p.Method {
		case MethodDisSMO:
			return trainDisSMO(c, x, y, p, out)
		case MethodCascade:
			return trainTree(c, x, y, p, out, false, false, lc)
		case MethodDCSVM:
			return trainTree(c, x, y, p, out, true, true, lc)
		case MethodDCFilter:
			return trainTree(c, x, y, p, out, true, false, lc)
		case MethodCPSVM:
			return trainCPSVM(c, x, y, p, out)
		case MethodFCFSCA, MethodBKMCA, MethodRACA:
			return trainCASVM(c, x, y, p, out)
		default:
			return fmt.Errorf("core: unimplemented method %q", p.Method)
		}
	})
	degraded := false
	if err != nil {
		// A crashed rank costs only its shard for the independent-model
		// methods when the caller opted into degraded completion; any
		// other failure — or a method that genuinely needs every rank —
		// aborts the run with the rank's error.
		var crash *mpi.CrashError
		if !(p.Degraded && p.Method.independentModels() && errors.As(err, &crash)) {
			return nil, world, err
		}
		degraded = true
	}
	wall := time.Since(wall0)

	st := Stats{
		Method: p.Method,
		P:      p.P,
		Wall:   wall,
	}
	st.TotalSec = world.MaxClock()
	st.PartSizes = make([]int, p.P)
	st.NodeTrainSec = make([]float64, p.P)
	st.NodeIters = make([]int, p.P)
	st.NodePos = make([]int, p.P)
	st.NodeNeg = make([]int, p.P)
	st.NodeSVPos = make([]int, p.P)
	st.NodeSVNeg = make([]int, p.P)
	for r := range results {
		st.PartSizes[r] = results[r].partSize
		st.NodeTrainSec[r] = results[r].trainSec
		st.NodeIters[r] = results[r].iters
		st.NodePos[r] = results[r].pos
		st.NodeNeg[r] = results[r].neg
		st.NodeSVPos[r] = results[r].svPos
		st.NodeSVNeg[r] = results[r].svNeg
		if results[r].initSec > st.InitSec {
			st.InitSec = results[r].initSec
		}
		if results[r].trainSec > st.TrainSec {
			st.TrainSec = results[r].trainSec
		}
		if results[r].kmIters > st.KMeansIters {
			st.KMeansIters = results[r].kmIters
		}
	}
	fillCommStats(&st, world.Stats())

	var set *model.Set
	switch p.Method {
	case MethodDisSMO:
		st.Iters = results[0].iters
		st.SVs = results[0].svs
		st.ColCacheHits, st.ColCacheMisses = results[0].colHits, results[0].colMisses
		set = model.Single(results[0].local, nil)
	case MethodCascade, MethodDCSVM, MethodDCFilter:
		st.Layers = lc.snapshot()
		for _, l := range st.Layers {
			st.Iters += l.MaxIters()
		}
		st.SVs = results[0].svs
		set = model.Single(results[0].local, nil)
	default: // CP-SVM and the CA-SVM variants: one model per rank
		n := x.Features()
		var centers []float64
		var models []*model.Model
		for r := range results {
			if results[r].local == nil {
				if degraded {
					continue // lost shard: survivors carry the prediction
				}
				return nil, world, fmt.Errorf("core: rank %d produced no model", r)
			}
			models = append(models, results[r].local)
			centers = append(centers, results[r].center...)
			st.SVs += results[r].svs
			if results[r].iters > st.Iters {
				st.Iters = results[r].iters
			}
		}
		if len(models) == 0 {
			return nil, world, fmt.Errorf("core: every rank crashed: %w", err)
		}
		set = &model.Set{Models: models, Centers: la.NewDense(len(models), n, centers)}
	}
	st.Degraded = degraded
	return &Output{Set: set, Stats: st}, world, nil
}
