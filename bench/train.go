package main

import (
	"fmt"
	"math/rand"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/partition"
	"casvm/internal/smo"
)

// trainSpec is what distinguishes the three core.Train workloads.
type trainSpec struct {
	method   core.Method
	p        int
	mix      data.MixtureSpec
	accFloor float64 // held-out accuracy below this fails the op
}

// gammaFor is the registry's heuristic: same-cluster kernel values near
// exp(−1), counting the stored features of a row.
func gammaFor(mix data.MixtureSpec) float64 {
	n := float64(mix.Features)
	if mix.Sparse {
		n *= mix.Density
	}
	return 1 / (2 * n * mix.Noise * mix.Noise)
}

type trainInst struct {
	spec        trainSpec
	x, testX    *la.Matrix
	y, testY    []float64
	params      core.Params
	ref         *core.Output
	refFP       string
	refHash     string
	acc         float64
	libsvmBytes int64
	// exact counters of the last staged replay
	solveIters int
	solveFlops float64
}

func setupTrain(spec trainSpec) func(w *workload, seed int64, tr *tracer) (instance, error) {
	return func(w *workload, seed int64, tr *tracer) (instance, error) {
		t := &trainInst{spec: spec}
		ds, x, y, size, err := loadCorpus(tr, spec.mix, seed)
		if err != nil {
			return nil, err
		}
		t.x, t.y, t.libsvmBytes = x, y, size
		t.testX, t.testY = ds.TestX, ds.TestY

		t.params = core.DefaultParams(spec.method, spec.p)
		t.params.Kernel = kernel.RBF(gammaFor(spec.mix))
		tr.do("core.Train", func() { t.ref, err = core.Train(t.x, t.y, t.params) })
		if err != nil {
			return nil, fmt.Errorf("reference training: %w", err)
		}
		t.refFP = setFingerprint(t.ref.Set)
		tr.do("core.ModelHash", func() { t.refHash, err = core.ModelHash(t.ref.Set) })
		if err != nil {
			return nil, err
		}
		tr.do("model.Set.Accuracy", func() { t.acc = t.ref.Set.Accuracy(t.testX, t.testY) })
		if t.acc < spec.accFloor {
			return nil, fmt.Errorf("reference accuracy %.4f below the workload's floor %.4f", t.acc, spec.accFloor)
		}
		return t, nil
	}
}

func (t *trainInst) run(_, _ int) (any, error) { return core.Train(t.x, t.y, t.params) }

// check holds every op to the reference trained during set-up: the same
// model bit for bit (hence the same core.ModelHash and the same held-out
// accuracy, which was held to the floor there) and the same exact counters.
func (t *trainInst) check(_ int, out any) error {
	o := out.(*core.Output)
	if fp := setFingerprint(o.Set); fp != t.refFP {
		h, _ := core.ModelHash(o.Set)
		return fmt.Errorf("model hash %s differs from the reference %s", h, t.refHash)
	}
	a, b := o.Stats, t.ref.Stats
	if a.Iters != b.Iters || a.SVs != b.SVs || a.CommOps != b.CommOps || a.CommBytes != b.CommBytes || a.TotalFlops != b.TotalFlops {
		return fmt.Errorf("counters differ from the reference: iters %d/%d svs %d/%d msgs %d/%d bytes %d/%d flops %v/%v",
			a.Iters, b.Iters, a.SVs, b.SVs, a.CommOps, b.CommOps, a.CommBytes, b.CommBytes, a.TotalFlops, b.TotalFlops)
	}
	return nil
}

func (t *trainInst) accuracyPct() float64 { return 100 * t.acc }

func (t *trainInst) close() {}

func (t *trainInst) solverConfig() smo.Config {
	return smo.Config{C: t.params.C, Tol: t.params.Tol, Kernel: t.params.Kernel}
}

// replay walks the op's work through the layer APIs. For the CA-SVM
// workloads that is the serial form of what the P ranks did between them:
// one FCFS partition, P independent solves, P model extractions, and the few
// collectives of the partitioning phase. For Dis-SMO it is the plain
// single-worker baseline (one smo.Solve of the whole set — the same pair
// updates without ranks) plus the op's own collectives issued back to back
// in an empty world, which is what the ranks add.
func (t *trainInst) replay(tr *tracer, _ int, out any) error {
	st := out.(*core.Output).Stats
	var err error
	tr.do("replay", func() {
		p, cfg := t.spec.p, t.solverConfig()
		t.solveIters, t.solveFlops = 0, 0
		solve := func(x *la.Matrix, y []float64) *model.Model {
			var res *smo.Result
			tr.do("smo.Solve", func() { res, err = smo.Solve(x, y, cfg, nil) })
			if err != nil {
				return nil
			}
			t.solveIters += res.Iters
			t.solveFlops += res.Flops
			var m *model.Model
			tr.do("model.FromSolution", func() { m = model.FromSolution(x, y, res.Alpha, res.B, cfg.Kernel) })
			return m
		}
		if t.spec.method == core.MethodDisSMO {
			solve(t.x, t.y)
		} else {
			var pr *partition.Result
			tr.do("partition.FCFS", func() {
				pr, err = partition.FCFS(t.x, t.y, p, partition.Options{RatioBalanced: t.params.RatioBalanced},
					rand.New(rand.NewSource(t.params.Seed)))
			})
			if err != nil {
				return
			}
			var parts []partition.Part
			tr.do("partition.Materialize", func() { parts = partition.Materialize(t.x, t.y, pr.Assign, p) })
			for _, part := range parts {
				if part.X.Rows() > 0 && err == nil {
					solve(part.X, part.Y)
				}
			}
		}
		if err != nil {
			return
		}
		tr.do("mpi.replay", func() { err = t.replayCollectives(st) })
	})
	return err
}

// replayCollectives issues the op's own collectives, at its payload sizes,
// in a world whose ranks do nothing else.
func (t *trainInst) replayCollectives(st core.Stats) error {
	p, n := t.spec.p, t.x.Features()
	w := mpi.NewWorld(p, t.params.Machine, t.params.Seed)
	if t.spec.method == core.MethodDisSMO {
		row := make([]float64, n+2) // one sample, its label and multiplier
		return w.Run(func(c *mpi.Comm) error {
			c.AllreduceSumInt([]int{1})
			for it := 0; it <= st.Iters; it++ { // the last round finds convergence
				c.AllreduceMinLoc(float64(c.Rank()), it)
				c.AllreduceMaxLoc(float64(c.Rank()), it)
				if it == st.Iters {
					break
				}
				for k := 0; k < 2; k++ {
					owner := (it + k) % p
					if c.Rank() == owner {
						c.BcastF64(owner, row)
					} else {
						c.BcastF64(owner, nil)
					}
				}
			}
			return nil
		})
	}
	centers := make([]float64, p*n)
	block := make([]byte, int(st.CommBytes)/(p*p))
	return w.Run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.BcastF64(0, centers)
		} else {
			c.BcastF64(0, nil)
		}
		c.AllreduceSumInt(make([]int, p))
		c.AllreduceSum(make([]float64, p*n))
		blocks := make([][]byte, p)
		for d := range blocks {
			blocks[d] = block
		}
		c.Alltoallv(blocks)
		return nil
	})
}

func (t *trainInst) probe(tr *tracer, quick bool, m map[string]float64) error {
	tr.setOp(-1)
	opMs := quiet(tr.byOp(t.spec.mix.Name + ".op"))
	st := t.ref.Stats

	m["data.generate_ms"] = tr.total("data.Generate")
	m["data.libsvm_load_mb_s"] = float64(t.libsvmBytes) / 1e6 / (tr.total("data.LoadLIBSVMFile") / 1e3)

	m["partition.fcfs_ms"] = quiet(tr.byOp("partition.FCFS"))
	m["partition.materialize_ms"] = quiet(tr.byOp("partition.Materialize"))
	m["smo.solve_ms"] = quiet(tr.byOp("smo.Solve"))
	m["smo.iters"] = float64(t.solveIters)
	m["smo.us_per_iter"] = 1e3 * m["smo.solve_ms"] / float64(t.solveIters)
	m["smo.flops"] = t.solveFlops
	m["model.from_solution_us"] = 1e3 * quiet(tr.byOp("model.FromSolution"))

	m["core.train_ms"] = opMs
	m["core.unattributed_pct"] = 100 * (opMs - quiet(tr.byOp("replay"))) / opMs
	m["core.virt_makespan_ms"] = 1e3 * st.TotalSec
	m["core.virt_init_ms"] = 1e3 * st.InitSec
	m["core.comm_bytes"] = float64(st.CommBytes)
	m["core.comm_msgs"] = float64(st.CommOps)
	m["core.svs"] = float64(st.SVs)
	m["mpi.share_pct"] = 100 * quiet(tr.byOp("mpi.replay")) / opMs

	probeKMeans(tr, t.x, t.spec.p, t.params.Seed, m)
	if err := probeCheckpoint(tr, t.x, t.y, t.solverConfig(), m); err != nil {
		return err
	}
	probeKernel(tr, t.x, t.params.Kernel, t.params.Seed, m)
	probeLA(tr, t.x, m)
	if err := probeMPI(tr, t.spec.p, t.x.Features(), t.params, quick, m); err != nil {
		return err
	}
	d := tr.do("model.Set.PredictAll", func() { t.ref.Set.PredictAll(t.testX) })
	m["model.predict_all_us_per_query"] = float64(d.Microseconds()) / float64(t.testX.Rows())
	return probePoolSolve(tr, t.x, t.y, t.solverConfig(), quick, m)
}
