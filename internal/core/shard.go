// Remote-execution driver split: the worker half of a CA-SVM training run.
//
// The cluster runtime's remote executors run each rank's shard solve inside
// the worker process that holds the rank's lease, instead of modeling the
// whole world in-process on the coordinator. That split only works because
// RA-CA under the casvm2 placement is communication-free: rank r's model
// depends on nothing but (dataset, r, P, solver params), all of which the
// worker reproduces deterministically from the job spec. RunShard is that
// per-rank computation factored out of trainCASVM, bit-identical to what
// the in-process world would produce for the same rank, so a model set
// assembled from remotely trained shards lands on the same ModelHash as a
// fault-free local run.
//
// The coordinator half is AssembleShards: given the P rank models and
// routing centers collected over the lease connections, it rebuilds the
// model.Set exactly as runAttempt's independent-models branch would.
package core

import (
	"fmt"
	"sort"

	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/smo"
)

// ShardRows returns rank r's resident row block under the casvm2 placement:
// the same nearly-even contiguous split every in-process world uses, so a
// remote worker and the local reference run train on identical rows.
func ShardRows(m, p, r int) []int {
	if p < 1 || r < 0 || r >= p {
		return nil
	}
	return evenBlocks(m, p)[r]
}

// ShardRun configures one remote rank solve on top of Params: the rank
// identity plus the checkpoint/interrupt wiring the executor threads in.
// CheckpointEvery, CheckpointSink and Restore mirror smo.Config; Interrupt
// is polled every iteration (abort frames and lease loss surface there).
type ShardRun struct {
	Rank int
	P    int

	CheckpointEvery int
	CheckpointSink  func(*smo.Checkpoint)
	Restore         *smo.Checkpoint
	Interrupt       func(iter int) error
}

// ShardResult is one rank's trained shard: the local model and routing
// center that AssembleShards needs, plus the profile numbers the worker
// streams back to the coordinator.
type ShardResult struct {
	Model  *model.Model
	Center []float64

	Iters    int
	SVs      int
	PartSize int

	// Flops is the modeled solver work; VirtSec its α–β-priced virtual
	// time on Params.Machine (init charge + solve compute), excluding
	// checkpoint transport, which the executor prices per deposit.
	Flops   float64
	VirtSec float64
}

// RunShard trains rank run.Rank's resident shard of (x, y) exactly as the
// in-process RA-CA world would: same row block, same block-mean routing
// center, same solver configuration — therefore the same model bytes. Only
// MethodRACA is supported; every other method needs collectives, and remote
// workers are not connected to each other.
func RunShard(x *la.Matrix, y []float64, p Params, run ShardRun) (*ShardResult, error) {
	if p.Method != MethodRACA {
		return nil, fmt.Errorf("core: RunShard supports %q only, got %q", MethodRACA, p.Method)
	}
	if x == nil || x.Rows() != len(y) {
		return nil, fmt.Errorf("core: shard samples and labels disagree")
	}
	if run.P < 1 || run.Rank < 0 || run.Rank >= run.P {
		return nil, fmt.Errorf("core: shard rank %d of %d out of range", run.Rank, run.P)
	}
	if x.Rows() < run.P {
		return nil, fmt.Errorf("core: %d samples cannot feed %d ranks", x.Rows(), run.P)
	}
	if err := p.validate(x.Rows()); err != nil {
		return nil, err
	}

	rows := evenBlocks(x.Rows(), run.P)[run.Rank]
	localX := x.Subset(rows)
	localY := subsetF64(y, rows)

	// The resident block IS the random partition; the routing center is the
	// block mean (eqn 14) — identical to trainCASVM's MethodRACA branch.
	center := localX.Mean(nil)
	virt := p.Machine.Compute(float64(localX.NNZ()))

	cfg := p.solverConfig()
	cfg.Interrupt = run.Interrupt
	cfg.CheckpointEvery = run.CheckpointEvery
	cfg.CheckpointSink = run.CheckpointSink
	cfg.Restore = run.Restore
	res, err := smo.Solve(localX, localY, cfg, nil)
	if err != nil {
		return nil, err
	}
	virt += p.Machine.Compute(res.Flops)

	m := localModel(localX, localY, res, p.Kernel)
	return &ShardResult{
		Model:    m,
		Center:   append([]float64(nil), center...),
		Iters:    res.Iters,
		SVs:      m.NSV(),
		PartSize: localX.Rows(),
		Flops:    res.Flops,
		VirtSec:  virt,
	}, nil
}

// AssembleShards rebuilds the routed model set from per-rank shard models
// and centers, in rank order — byte-identical to the set the in-process
// independent-models assembly produces, so ModelHash comparisons across the
// two execution modes are meaningful. features is the dataset's column
// count (every center must have that length).
func AssembleShards(shards map[int]*ShardResult, features int) (*model.Set, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: no shards to assemble")
	}
	ranks := make([]int, 0, len(shards))
	for r := range shards {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	var models []*model.Model
	var centers []float64
	for _, r := range ranks {
		sh := shards[r]
		if sh == nil || sh.Model == nil {
			return nil, fmt.Errorf("core: rank %d produced no model", r)
		}
		if len(sh.Center) != features {
			return nil, fmt.Errorf("core: rank %d center has %d features, want %d", r, len(sh.Center), features)
		}
		models = append(models, sh.Model)
		centers = append(centers, sh.Center...)
	}
	return &model.Set{Models: models, Centers: la.NewDense(len(models), features, centers)}, nil
}

// Cadence exposes the checkpoint cadence with its default applied — the
// remote executor needs the same effective value the in-process supervisor
// would use.
func (r Recovery) Cadence() int { return r.every() }

// RestartBudget exposes the restart bound with its default applied.
func (r Recovery) RestartBudget() int { return r.maxRestarts() }

// PenaltySec exposes the modeled relaunch penalty with its default applied.
func (r Recovery) PenaltySec() float64 { return r.penalty() }
