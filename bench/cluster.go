package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"casvm/internal/cluster"
	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/smo"
)

// clusterExecutors is the gang: the scheduler starts a P-rank job only on P
// free workers, so the P=4 job needs four executors. They are goroutines of
// this process talking to the coordinator over loopback TCP, which puts the
// whole protocol — and its CPU — inside the measured process.
const clusterExecutors = 4

// clusterMixture is the job's inline dataset. The job spec is the op's only
// input, so here the seed cannot reflect the data; it goes in as the job's
// seed, and the corpus is constant like every other workload's.
var clusterMixture = data.MixtureSpec{
	Name: "cluster-remote", Train: 400, Test: 400, Features: 16, Clusters: 4,
	Separation: 6, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02, Margin: 1, Seed: 2015,
}

// fleet is a coordinator with its executors registered.
type fleet struct {
	coord  *cluster.Coordinator
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet(telemetry bool) (*fleet, error) {
	c, err := cluster.New("127.0.0.1:0", cluster.Config{})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{coord: c, cancel: cancel}
	for i := 0; i < clusterExecutors; i++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			// The lease ends with an error at shutdown by design; job
			// outcomes are what the ops check.
			_ = cluster.RunExecutor(ctx, c.Addr(), cluster.ExecutorOptions{Fleet: telemetry})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Workers()) < clusterExecutors {
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("only %d of %d executors registered", len(c.Workers()), clusterExecutors)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return f, nil
}

func (f *fleet) stop() {
	f.cancel()
	f.wg.Wait()
	f.coord.Close()
}

type clusterInst struct {
	fleet    *fleet
	spec     cluster.JobSpec
	ds       *data.Dataset
	params   core.Params
	wantHash string
	ref      *core.Output
	acc      float64
	regMs    float64
	shardMs  float64 // slowest core.RunShard of the last replay
	iters    int
	flops    float64
	// generations dispatched over the jobs checked since warm-up
	jobs, generations int
}

const clusterTimeout = 60 * time.Second

func setupCluster(w *workload, seed int64, tr *tracer) (instance, error) {
	mix := clusterMixture
	c := &clusterInst{spec: cluster.JobSpec{
		ID: fmt.Sprintf("bench-%d", seed), Method: string(core.MethodRACA), P: 4, Seed: seed,
		Policy: "shrink", Remote: true, Mixture: &mix,
	}}
	// The local reference, built the way the coordinator builds the job
	// (cluster.trainParams): same dataset, γ = 1/features, same recovery.
	var err error
	tr.do("data.Generate", func() { c.ds, err = data.Generate(mix) })
	if err != nil {
		return nil, err
	}
	c.params = core.DefaultParams(core.MethodRACA, c.spec.P)
	c.params.Seed = seed
	c.params.Kernel = kernel.RBF(1 / float64(mix.Features))
	c.params.Recovery = core.Recovery{Policy: core.RecoverShrink}
	tr.do("core.Train", func() { c.ref, err = core.Train(c.ds.X, c.ds.Y, c.params) })
	if err != nil {
		return nil, fmt.Errorf("reference training: %w", err)
	}
	if c.wantHash, err = core.ModelHash(c.ref.Set); err != nil {
		return nil, err
	}
	c.acc = c.ref.Set.Accuracy(c.ds.TestX, c.ds.TestY)

	d := tr.do("cluster.New+RunExecutor", func() { c.fleet, err = startFleet(true) })
	if err != nil {
		return nil, err
	}
	c.regMs = ms(d)
	// Two priming jobs: the first pays for cold connections and lazily
	// built state, which users of a long-lived cluster do not pay per job.
	tr.do("cluster.SubmitAndWait(priming)", func() {
		for i := 1; i <= 2 && err == nil; i++ {
			var res *cluster.JobResult
			if res, err = submit(c.fleet, c.spec, -i); err == nil {
				err = checkJob(res, c.wantHash)
			}
		}
	})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("priming job: %w", err)
	}
	return c, nil
}

func (c *clusterInst) run(_, i int) (any, error) {
	return submit(c.fleet, c.spec, i)
}

func submit(f *fleet, spec cluster.JobSpec, i int) (*cluster.JobResult, error) {
	spec.ID = fmt.Sprintf("%s-%d", spec.ID, i)
	return cluster.SubmitAndWait(f.coord.Addr(), spec, clusterTimeout)
}

func (c *clusterInst) check(i int, out any) error {
	res := out.(*cluster.JobResult)
	if i >= 0 {
		c.jobs++
		c.generations += res.Generations
	}
	return checkJob(res, c.wantHash)
}

// checkJob holds a finished job to the hash of the same spec trained
// in-process during set-up. A job that needed a second generation is still a
// correct job — re-ganging is the system recovering, as designed — so the
// count goes to cluster.generations instead of failing the op: about one job
// in a thousand re-gangs on a healthy cluster, because an executor reserves
// its mesh port by binding and releasing it and now and then loses it to
// another socket before it binds again ("address already in use").
func checkJob(res *cluster.JobResult, wantHash string) error {
	if res.ModelHash != wantHash {
		return fmt.Errorf("job %s: model hash %s differs from the in-process reference %s", res.ID, res.ModelHash, wantHash)
	}
	return nil
}

func (c *clusterInst) accuracyPct() float64 { return 100 * c.acc }

func (c *clusterInst) close() { c.fleet.stop() }

// replay repeats what the five processes of a real deployment would each do
// for the job: the coordinator and every executor generate the dataset from
// the spec, each rank runs core.RunShard with checkpoints encoded at the
// job's cadence, and the coordinator assembles, scores and hashes the set.
// What is left of the op is the protocol: leases, frames, mesh, telemetry.
func (c *clusterInst) replay(tr *tracer, _ int, _ any) error {
	var err error
	tr.do("replay", func() {
		mix := *c.spec.Mixture
		for k := 0; k <= clusterExecutors && err == nil; k++ {
			tr.do("data.Generate", func() { _, err = data.Generate(mix) })
		}
		shards := map[int]*core.ShardResult{}
		c.shardMs, c.iters, c.flops = 0, 0, 0
		for r := 0; r < c.spec.P && err == nil; r++ {
			run := core.ShardRun{Rank: r, P: c.spec.P, CheckpointEvery: c.params.Recovery.Cadence(),
				CheckpointSink: func(ck *smo.Checkpoint) { ck.Encode() }}
			d := tr.do("core.RunShard", func() { shards[r], err = core.RunShard(c.ds.X, c.ds.Y, c.params, run) })
			if err != nil {
				return
			}
			if ms(d) > c.shardMs {
				c.shardMs = ms(d)
			}
			c.iters += shards[r].Iters
			c.flops += shards[r].Flops
		}
		tr.do("core.AssembleShards", func() {
			set, aerr := core.AssembleShards(shards, c.ds.Features())
			if err = aerr; err != nil {
				return
			}
			set.Accuracy(c.ds.TestX, c.ds.TestY)
			_, err = core.ModelHash(set)
		})
	})
	return err
}

func (c *clusterInst) probe(tr *tracer, quick bool, m map[string]float64) error {
	tr.setOp(-1)
	opMs := quiet(tr.byOp("cluster-remote.op"))
	m["data.generate_ms"] = quiet(tr.byOp("data.Generate")) / (clusterExecutors + 1)

	m["smo.solve_ms"] = quiet(tr.byOp("core.RunShard"))
	m["smo.iters"] = float64(c.iters)
	m["smo.us_per_iter"] = 1e3 * m["smo.solve_ms"] / float64(c.iters)
	m["smo.flops"] = c.flops
	if err := probeCheckpoint(tr, c.ds.X, c.ds.Y, smo.Config{C: c.params.C, Tol: c.params.Tol, Kernel: c.params.Kernel}, m); err != nil {
		return err
	}
	m["core.train_ms"] = tr.total("core.Train")
	m["core.run_shard_ms"] = c.shardMs
	m["core.unattributed_pct"] = 100 * (opMs - quiet(tr.byOp("replay"))) / opMs
	m["core.virt_makespan_ms"] = 1e3 * c.ref.Stats.TotalSec
	m["core.virt_init_ms"] = 1e3 * c.ref.Stats.InitSec
	m["core.comm_bytes"] = float64(c.ref.Stats.CommBytes)
	m["core.comm_msgs"] = float64(c.ref.Stats.CommOps)
	m["core.svs"] = float64(c.ref.Stats.SVs)

	m["cluster.register_ms"] = c.regMs
	m["cluster.submit_to_result_ms"] = opMs
	m["cluster.protocol_ms"] = opMs - c.shardMs
	m["cluster.generations"] = float64(c.generations) / float64(c.jobs)

	if err := probeTCPMPI(tr, quick, m); err != nil {
		return err
	}
	return c.probeFleet(tr, quick, m)
}

// probeFleet measures what fleet telemetry costs a job: the same ops against
// a second cluster whose executors have it off, interleaved with ops against
// the workload's own cluster so both sides see the same host.
func (c *clusterInst) probeFleet(tr *tracer, quick bool, m map[string]float64) error {
	off, err := startFleet(false)
	if err != nil {
		return err
	}
	defer off.stop()
	n := 40
	if quick {
		n = 5
	}
	job := func(f *fleet, name string, i int) (float64, error) {
		var res *cluster.JobResult
		var err error
		d := tr.do(name, func() { res, err = submit(f, c.spec, 1000+i) })
		if err == nil {
			err = checkJob(res, c.wantHash)
		}
		return ms(d), err
	}
	var onMs, offMs []float64
	for i := 0; i < n+2; i++ {
		on, err := job(c.fleet, "cluster.SubmitAndWait(fleet on)", i)
		if err != nil {
			return err
		}
		offT, err := job(off, "cluster.SubmitAndWait(fleet off)", i)
		if err != nil {
			return err
		}
		if i >= 2 { // the first two prime the second cluster
			onMs, offMs = append(onMs, on), append(offMs, offT)
		}
	}
	m["fleet.overhead_pct"] = 100 * (quiet(onMs) - quiet(offMs)) / quiet(offMs)
	return nil
}
