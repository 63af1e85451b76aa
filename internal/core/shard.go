// The per-rank driver, and the two ways of running a rank somewhere other
// than the in-process world of Train.
//
// RunRank is the one entry point that runs a rank's share of a method on a
// communicator. Train's worlds call it for every rank on goroutines; a worker
// process calls it on a world whose Link is its TCP mesh, then GatherOutput
// collects the ranks' results at rank 0; RunShard calls it on a world whose
// link refuses traffic — RA-CA under the casvm2 placement sends nothing, so
// rank r's model depends on nothing but (dataset, r, P, solver params) and a
// cluster executor can solve it alone. All three produce the same bytes for
// the same rank, so a model set assembled from remote shards lands on the
// ModelHash of a local run.
package core

import (
	"errors"
	"fmt"
	"sort"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/smo"
	"casvm/internal/trace"
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
	commOps, commBytes int64       // sent while training; set on gathered results
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

// GatherOutput collects every rank's RunRank result at rank 0 and assembles
// there what Train would have returned; other ranks get nil. st is the
// calling rank's world Stats, read before the gather adds its own traffic.
// Stats carries what the ranks themselves measured — not Wall, CommMatrix,
// CommSec, CompSec or TotalFlops, which need the whole world in one process.
func GatherOutput(c *mpi.Comm, sh *ShardResult, p Params, st *trace.Stats) (*Output, error) {
	nums := []float64{float64(sh.Iters), float64(sh.SVs), float64(sh.PartSize), sh.Flops, sh.VirtSec,
		sh.initSec, sh.trainSec, float64(sh.kmIters), float64(sh.colHits), float64(sh.colMisses),
		float64(sh.pos), float64(sh.neg), float64(sh.svPos), float64(sh.svNeg),
		float64(st.TotalOps()), float64(st.TotalBytes())}
	for _, n := range sh.layers {
		nums = append(nums, float64(n.layer), float64(n.Samples), float64(n.Iters), float64(n.SVs), n.Time)
	}
	secs := [][]byte{la.EncodeF64(nums)}
	if sh.Model != nil {
		secs = append(secs, model.EncodeShard(sh.Model, sh.Center)...)
	}
	gathered := c.Gatherv(0, mpi.PackSections(secs...))
	if c.Rank() != 0 {
		return nil, nil
	}
	// Rank 0 holds a model under every method, so its center has the width
	// every other rank's shard must have.
	features := len(sh.Center)
	results := make([]ShardResult, len(gathered))
	for r, buf := range gathered {
		if err := results[r].decode(r, buf, p.Kernel, features); err != nil {
			return nil, fmt.Errorf("core: rank %d result: %w", r, err)
		}
	}
	out, err := assemble(p, features, results)
	if err != nil {
		return nil, err
	}
	for r := range results {
		out.Stats.CommOps += results[r].commOps
		out.Stats.CommBytes += results[r].commBytes
		if results[r].VirtSec > out.Stats.TotalSec {
			out.Stats.TotalSec = results[r].VirtSec
		}
	}
	return out, nil
}

// shardNums is the fixed part of a gathered result's number section; five
// numbers per tree-layer entry follow.
const shardNums = 16

// decode parses one gathered result: the number section, then the sections
// of the rank's model if it has one. The bytes come from another process: the
// model goes through model.DecodeShard's checks and the numbers are counted
// before they are indexed.
func (sh *ShardResult) decode(rank int, buf []byte, k kernel.Params, features int) error {
	secs, err := mpi.UnpackSections(buf, mpi.AnyCount)
	if err != nil {
		return err
	}
	if len(secs) == 0 {
		return fmt.Errorf("no sections")
	}
	v, err := la.DecodeF64(secs[0])
	if err != nil {
		return err
	}
	if len(v) < shardNums || (len(v)-shardNums)%5 != 0 {
		return fmt.Errorf("%d numbers", len(v))
	}
	*sh = ShardResult{Iters: int(v[0]), SVs: int(v[1]), PartSize: int(v[2]), Flops: v[3], VirtSec: v[4],
		initSec: v[5], trainSec: v[6], kmIters: int(v[7]), colHits: int64(v[8]), colMisses: int64(v[9]),
		pos: int(v[10]), neg: int(v[11]), svPos: int(v[12]), svNeg: int(v[13]),
		commOps: int64(v[14]), commBytes: int64(v[15])}
	for v = v[shardNums:]; len(v) > 0; v = v[5:] {
		sh.layers = append(sh.layers, layerNode{int(v[0]), NodeStat{
			Rank: rank, Samples: int(v[1]), Iters: int(v[2]), SVs: int(v[3]), Time: v[4]}})
	}
	if len(secs) > 1 {
		sh.Model, sh.Center, err = model.DecodeShard(secs[1:], k, features)
	}
	return err
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
