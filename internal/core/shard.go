// The per-rank driver, and running a rank somewhere other than the
// in-process world of Train.
//
// RunRank is the one entry point that runs a rank's share of a method on a
// communicator. Train's worlds call it for every rank on goroutines; a cluster
// executor calls it on a world whose Link is its generation's TCP mesh and
// reports the rank's ShardResult to the coordinator; RunShard calls it on a
// world whose link refuses traffic — RA-CA under the casvm2 placement sends
// nothing, so rank r's model depends on nothing but (dataset, r, P, solver
// params) and an executor can solve it alone. All three produce the same bytes
// for the same rank, so a model set assembled from remote ranks lands on the
// ModelHash of a local run.
package core

import (
	"errors"
	"fmt"
	"sort"

	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/smo"
)

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

// ShardResult is what one rank produced: the model and routing center
// AssembleShards needs (the independent-model methods give every rank a
// model; Dis-SMO and the trees give rank 0 the only one, with a zero center)
// plus the rank's share of the run profile.
type ShardResult struct {
	Model  *model.Model
	Center []float64

	Iters    int
	SVs      int
	PartSize int

	// LayerIters holds a tree-method rank's solver iterations at each layer
	// it solved, layer 1 first (Iters stays 0 there: JobIters sums the
	// layers' slowest nodes instead).
	LayerIters []int

	// Flops is the modeled work of the rank's local solve (independent-model
	// methods only); VirtSec the rank's virtual clock on Params.Machine when
	// it finished, excluding a remote executor's checkpoint transport, which
	// the executor prices per deposit.
	Flops   float64
	VirtSec float64

	initSec, trainSec  float64
	kmIters            int
	colHits, colMisses int64       // Dis-SMO column-cache lookups (rank 0)
	pos, neg           int         // class structure of the rank's partition
	svPos, svNeg       int         // (Tables VII–VIII)
	layers             []layerNode // tree methods: this rank's layer entries
}

// RunRank runs rank c.Rank()'s share of p.Method over (x, y) on c, which
// must span p.P ranks all making the same call. The result is non-nil even
// with an error: it holds what the rank had reached.
func RunRank(c *mpi.Comm, x *la.Matrix, y []float64, p Params) (*ShardResult, error) {
	out := &ShardResult{}
	var err error
	switch p.Method {
	case MethodDisSMO:
		err = trainDisSMO(c, x, y, p, out)
	case MethodCascade, MethodDCSVM, MethodDCFilter:
		err = trainTree(c, x, y, p, out)
	case MethodCPSVM, MethodFCFSCA, MethodBKMCA, MethodRACA:
		err = trainIndependent(c, x, y, p, out)
	default:
		err = fmt.Errorf("core: unimplemented method %q", p.Method)
	}
	out.VirtSec = c.Clock()
	return out, err
}

// noLink is the transport of a rank that must not communicate.
type noLink struct{}

var errNoLink = errors.New("core: RunShard ranks are not connected to each other")

func (noLink) Send(int, int, []byte) error   { return errNoLink }
func (noLink) Recv(int, int) ([]byte, error) { return nil, errNoLink }

// RunShard trains rank run.Rank's resident shard of (x, y) alone, exactly as
// that rank of an RA-CA world would: same row block, same block-mean routing
// center, same solver configuration — therefore the same model bytes. Only
// MethodRACA is supported; every other method needs collectives, and remote
// workers are not connected to each other.
func RunShard(x *la.Matrix, y []float64, p Params, run ShardRun) (*ShardResult, error) {
	if p.Method != MethodRACA {
		return nil, fmt.Errorf("core: RunShard supports %q only, got %q", MethodRACA, p.Method)
	}
	if run.P < 1 || run.Rank < 0 || run.Rank >= run.P {
		return nil, fmt.Errorf("core: shard rank %d of %d out of range", run.Rank, run.P)
	}
	p.P, p.Placement, p.shard = run.P, PlacementDistributed, &run
	if err := p.validate(x, y); err != nil {
		return nil, err
	}
	var sh *ShardResult
	err := newWorld(p, 0).RunLink(run.Rank, noLink{}, func(c *mpi.Comm) (err error) {
		sh, err = RunRank(c, x, y, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sh, nil
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
	models := make([]*model.Model, 0, len(ranks))
	centers := make([]float64, 0, len(ranks)*features)
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
