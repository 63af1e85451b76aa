package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"casvm/internal/la"
	"casvm/internal/mpi"
	"casvm/internal/trace"
)

// Train runs the configured method on (x, y) and returns the trained model
// set plus the run statistics. Labels must be ±1.
//
// Without a recovery policy this is one world, one attempt: a rank crash
// fails the run with its *mpi.CrashError. With Params.Recovery.Policy set,
// Train supervises: crashes trigger checkpointed restarts — at full width
// (respawn) or shrunk onto the survivors — until the run completes or the
// restart budget is spent.
func Train(x *la.Matrix, y []float64, p Params) (*Output, error) {
	if err := p.validate(x, y); err != nil {
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
		every:   rec.Cadence(),
		machine: p.Machine,
		tl:      p.Timeline,
		metrics: p.Metrics,
	}
	pp := p
	pp.rt = rt

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
		if isCrash && recoveries >= MaxRestarts {
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
		newBase := failClock + RestartPenaltySec

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

// newWorld builds the world one attempt runs on: p.P ranks on p.Machine
// whose virtual clocks start at base, with p's fault hook and timeline.
func newWorld(p Params, base float64) *mpi.World {
	world := mpi.NewWorld(p.P, p.Machine, p.Seed)
	world.SetBaseClock(base)
	if p.Faults != nil {
		world.SetTransportHook(p.Faults)
	}
	world.SetTimeline(p.Timeline)
	return world
}

// runAttempt executes the method once on a fresh world of p.P ranks whose
// virtual clocks start at base, and returns the assembled output, the world
// (for the supervisor's post-mortem on failure), and the first error. Ranks
// report through shared memory; the World join provides the happens-before
// edge.
func runAttempt(x *la.Matrix, y []float64, p Params, base float64) (*Output, *mpi.World, error) {
	world := newWorld(p, base)
	results := make([]ShardResult, p.P)

	wall0 := time.Now()
	err := world.Run(func(c *mpi.Comm) error {
		sh, err := RunRank(c, x, y, p)
		results[c.Rank()] = *sh
		return err
	})
	if err != nil {
		return nil, world, err
	}
	wall := time.Since(wall0)

	out, err := assemble(p, x.Features(), results)
	if err != nil {
		return nil, world, err
	}
	out.Stats.Wall = wall
	out.Stats.TotalSec = world.MaxClock()
	fillCommStats(&out.Stats, world.Stats())
	return out, world, nil
}

// assemble builds the Output from the ranks' results: the model set through
// AssembleShards and every Stats field the ranks themselves determine. The
// caller adds what only the world knows (clocks, communication volumes).
func assemble(p Params, features int, results []ShardResult) (*Output, error) {
	n := len(results)
	st := Stats{Method: p.Method, P: n,
		PartSizes: make([]int, n), NodeTrainSec: make([]float64, n), NodeIters: make([]int, n),
		NodePos: make([]int, n), NodeNeg: make([]int, n), NodeSVPos: make([]int, n), NodeSVNeg: make([]int, n)}
	shards := map[int]*ShardResult{}
	for r := range results {
		res := &results[r]
		st.PartSizes[r] = res.PartSize
		st.NodeTrainSec[r] = res.trainSec
		st.NodeIters[r] = res.Iters
		st.NodePos[r], st.NodeNeg[r] = res.pos, res.neg
		st.NodeSVPos[r], st.NodeSVNeg[r] = res.svPos, res.svNeg
		st.InitSec = math.Max(st.InitSec, res.initSec)
		st.TrainSec = math.Max(st.TrainSec, res.trainSec)
		if res.kmIters > st.KMeansIters {
			st.KMeansIters = res.kmIters
		}
		// Single-model methods assemble rank 0 alone.
		if p.Method.independentModels() {
			shards[r] = res
			st.SVs += res.SVs
			if res.Iters > st.Iters {
				st.Iters = res.Iters
			}
		}
	}
	if !p.Method.independentModels() {
		shards[0] = &results[0]
		st.SVs = results[0].SVs
		st.ColCacheHits, st.ColCacheMisses = results[0].colHits, results[0].colMisses
		if p.Method == MethodDisSMO {
			st.Iters = results[0].Iters // the global count
		}
		st.Layers = mergeLayers(results) // tree methods only
		for _, l := range st.Layers {
			st.Iters += l.MaxIters()
		}
	}
	set, err := AssembleShards(shards, features)
	if err != nil {
		return nil, err
	}
	return &Output{Set: set, Stats: st}, nil
}
