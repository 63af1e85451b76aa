package core

import (
	"fmt"

	"casvm/internal/kmeans"
	"casvm/internal/la"
	"casvm/internal/mpi"
	"casvm/internal/partition"
	"casvm/internal/smo"
	"casvm/internal/trace"
)

// trainIndependent implements the methods that partition once and then train
// P completely independent SVMs, each node keeping its own model file MF_j
// and prediction routing a query to the model of its nearest center (Fig 3):
//
//	CP-SVM  — distributed K-means by Euclidean proximity (§IV-A)
//	FCFS-CA — parallel First-Come-First-Served partitioning (Alg 4)
//	BKM-CA  — distributed balanced K-means (Alg 5, parallelised)
//	RA-CA   — random-averaging: keep the local block, no communication
//
// The last three are the communication-avoiding family (§IV-B). Under
// PlacementDistributed (casvm2) each of their nodes starts with its block in
// place; RA-CA then moves zero bytes over the network — the defining
// property of CA-SVM. Under PlacementRoot (casvm1), and always for CP-SVM,
// the run begins with a scatter from rank 0 (the Fig 9 comparison).
func trainIndependent(c *mpi.Comm, full *la.Matrix, fullY []float64, p Params, out *ShardResult) error {
	rec := c.Recorder()
	c.SetPhase("partition")
	spInit := rec.BeginVirt(trace.CatInit, "partition", c.Clock())
	var local part
	var err error
	if p.Placement == PlacementRoot || p.Method == MethodCPSVM {
		if local, err = scatterBlocks(c, full, fullY); err != nil {
			return err
		}
	} else {
		// casvm2: the block is already resident on this node. Pull it
		// from the shared input without any message traffic, modelling
		// data generated or stored in place.
		rows := evenBlocks(full.Rows(), c.Size())[c.Rank()]
		local = part{x: full.Subset(rows), y: subsetF64(fullY, rows)}
	}

	opts := partition.Options{RatioBalanced: p.RatioBalanced}
	switch p.Method {
	case MethodCPSVM:
		km := kmeans.RunDistributed(c, local.x, c.Size(), 0, 0)
		out.kmIters = km.Iters
		if local, err = regroup(c, local, km.Assign); err != nil {
			return err
		}
		out.Center = append([]float64(nil), km.Centers.DenseRow(c.Rank())...)
	case MethodFCFSCA:
		pr, err := partition.ParallelFCFS(c, local.x, local.y, opts)
		if err != nil {
			return err
		}
		if local, err = regroup(c, local, pr.Assign); err != nil {
			return err
		}
		out.Center = append([]float64(nil), pr.Centers.DenseRow(c.Rank())...)
	case MethodBKMCA:
		pr, kmIters, err := partition.ParallelBKM(c, local.x, local.y, opts)
		if err != nil {
			return err
		}
		out.kmIters = kmIters
		if local, err = regroup(c, local, pr.Assign); err != nil {
			return err
		}
		out.Center = append([]float64(nil), pr.Centers.DenseRow(c.Rank())...)
	case MethodRACA:
		// The resident block IS the random partition (the dataset is
		// shuffled); the center is the block mean (eqn 14). Zero
		// communication under casvm2.
		out.Center = local.x.Mean(nil)
		c.Charge(float64(local.x.NNZ()))
	default:
		return fmt.Errorf("core: trainIndependent got %q", p.Method)
	}
	out.PartSize = local.x.Rows()
	out.initSec = c.Clock()
	rec.EndVirt(spInit, c.Clock())

	return solveLocal(c, local, p, out)
}

// solveLocal trains the rank's own partition into its own model.
func solveLocal(c *mpi.Comm, local part, p Params, out *ShardResult) error {
	rec := c.Recorder()
	c.SetPhase("solve")
	spSolve := rec.BeginVirt(trace.CatTrain, "solve", c.Clock())
	res, err := smo.Solve(local.x, local.y, p.solverConfigCkpt(c), nil)
	if err != nil {
		return err
	}
	c.Charge(res.Flops)
	rec.EndVirt(spSolve, c.Clock())
	out.Iters = res.Iters
	out.Flops = res.Flops
	out.Model = localModel(local.x, local.y, res, p.Kernel)
	out.SVs = out.Model.NSV()
	out.fillClassCounts(local.y, res.Alpha)
	out.trainSec = c.Clock() - out.initSec
	return nil
}
