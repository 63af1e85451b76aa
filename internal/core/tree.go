package core

import (
	"casvm/internal/kmeans"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/smo"
	"casvm/internal/trace"
)

// layerNode is one rank's entry in a tree layer's profile (Table V).
type layerNode struct {
	layer int
	NodeStat
}

// mergeLayers builds the per-layer profile from every rank's own entries.
// Walking the results in rank order leaves each layer's nodes sorted by
// rank.
func mergeLayers(results []ShardResult) []LayerStat {
	byLayer := map[int][]NodeStat{}
	for r := range results {
		for _, n := range results[r].layers {
			byLayer[n.layer] = append(byLayer[n.layer], n.NodeStat)
		}
	}
	var out []LayerStat
	for l := 1; byLayer[l] != nil; l++ {
		out = append(out, LayerStat{Layer: l, Nodes: byLayer[l]})
	}
	return out
}

// TreeLayers is how many layers the reduction tree of p ranks runs: the
// active ranks halve, rounding up, until one is left.
func TreeLayers(p int) int {
	n := 1
	for ; p > 1; p = (p + 1) / 2 {
		n++
	}
	return n
}

// JobIters is the critical-path iteration count Stats.Iters reports, from the
// ranks' results in rank order: Dis-SMO's global count (every rank holds it),
// the sum over tree layers of each layer's slowest node, and the slowest rank
// of the independent-model methods.
func JobIters(m Method, ranks []*ShardResult) int {
	n := 0
	switch {
	case m == MethodDisSMO:
		return ranks[0].Iters
	case m.IndependentModels():
		for _, r := range ranks {
			n = max(n, r.Iters)
		}
		return n
	}
	for l := 0; ; l++ {
		slowest := -1
		for _, r := range ranks {
			if l < len(r.LayerIters) {
				slowest = max(slowest, r.LayerIters[l])
			}
		}
		if slowest < 0 {
			return n
		}
		n += slowest
	}
}

// trainTree implements the reduction-tree family (Fig 2):
//
//   - Cascade:   even block partition, SV-only layer passing
//   - DC-SVM:    K-means partition,   all-samples layer passing
//   - DC-Filter: K-means partition,   SV-only layer passing
//
// The active ranks halve every layer; surviving parts carry their Lagrange
// multipliers to warm-start the next layer (§II-C). The tree runs once: the
// paper notes the feedback loop of Fig 2 (redistribute the final support
// vectors and repeat) almost never needs a second pass.
func trainTree(c *mpi.Comm, full *la.Matrix, fullY []float64, p Params, out *ShardResult) error {
	useKMeans, passAll := p.Method != MethodCascade, p.Method == MethodDCSVM
	rec := c.Recorder()
	c.SetPhase("partition")
	spInit := rec.BeginVirt(trace.CatInit, "partition", c.Clock())
	local, err := scatterBlocks(c, full, fullY)
	if err != nil {
		return err
	}
	if useKMeans {
		km := kmeans.RunDistributed(c, local.x, c.Size(), 0, 0)
		out.kmIters = km.Iters
		if local, err = regroup(c, local, km.Assign); err != nil {
			return err
		}
	}
	out.PartSize = local.x.Rows()
	out.initSec = c.Clock()
	rec.EndVirt(spInit, c.Clock())
	c.SetPhase("solve")

	finalPart, finalRes, err := runTreePass(c, local, p, passAll, out)
	if err != nil {
		return err
	}
	if c.Rank() == 0 {
		out.Model = model.FromSolution(finalPart.x, finalPart.y, finalRes.Alpha, finalRes.B, p.Kernel)
		out.SVs = out.Model.NSV()
		out.Center = make([]float64, full.Features()) // one model: nothing to route
	}
	out.trainSec = c.Clock() - out.initSec
	return nil
}

// runTreePass executes the reduction-tree pass. Every rank returns; only
// the final node (rank 0) gets a non-nil result and the merged part it
// trained on.
func runTreePass(c *mpi.Comm, current part, p Params, passAll bool,
	out *ShardResult) (part, *smo.Result, error) {

	active := allRows(c.Size())
	const tag = 23
	for layer := 1; ; layer++ {
		pos := indexOf(active, c.Rank())
		if pos < 0 {
			return part{}, nil, nil // retired in an earlier layer
		}
		t0 := c.Clock()
		sp := c.Recorder().BeginVirt(trace.CatTrain, "layer-solve", t0)
		res, err := smo.Solve(current.x, current.y, p.solverConfigCkpt(c), current.alpha)
		if err != nil {
			return part{}, nil, err
		}
		c.Charge(res.Flops)
		c.Recorder().EndVirt(sp, c.Clock())
		svs := svRows(res.Alpha)
		out.LayerIters = append(out.LayerIters, res.Iters)
		out.layers = append(out.layers, layerNode{layer, NodeStat{
			Rank:    c.Rank(),
			Samples: current.x.Rows(),
			Iters:   res.Iters,
			SVs:     len(svs),
			Time:    c.Clock() - t0,
		}})
		if len(active) == 1 {
			return current, res, nil
		}
		// Select what ascends: everything (DC-SVM) or only SVs
		// (Cascade, DC-Filter), always with multipliers for warm start.
		rows := svs
		if passAll {
			rows = allRows(current.x.Rows())
		}
		if pos%2 == 1 {
			// Odd position: ship to the left partner and retire.
			c.Send(active[pos-1], tag, encodePart(current.x, current.y, res.Alpha, rows))
			return part{}, nil, nil
		}
		outgoing, err := decodePart(encodePart(current.x, current.y, res.Alpha, rows))
		if err != nil {
			return part{}, nil, err
		}
		if pos+1 < len(active) {
			received, err := decodePart(c.Recv(active[pos+1], tag))
			if err != nil {
				return part{}, nil, err
			}
			current = mergeParts([]part{outgoing, received})
		} else {
			// Odd active count: pass through unpaired.
			current = outgoing
		}
		active = evens(active)
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func evens(xs []int) []int {
	out := make([]int, 0, (len(xs)+1)/2)
	for i := 0; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	return out
}
