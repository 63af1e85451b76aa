// The paper's headline comparison on real processes: Dis-SMO (the baseline)
// and RA-CA (CA-SVM) as remote jobs of an internal/cluster coordinator, each
// rank trained in its own OS process.
//
// The program runs a coordinator and forks -p executor processes of itself
// (-executor), which register with it by address alone. It submits each method
// as a job: RA-CA ranks solve their shards alone over their leases;
// Dis-SMO's generation is a TCP mesh the executors dial on the listeners they
// announced, each running the per-rank driver every other run uses
// (core.RunRank), so messages, bytes and models are those of the in-process
// run. Per method it prints what the job moved, its wall time, and whether the
// model hash equals the in-process core.Train reference (the process exits
// non-zero if it does not):
//
//	go run ./examples/distributed -p 4
//
// Fleet telemetry — every executor reports over its lease in the exec frames
// that carry its work: an RA-CA rank's checkpoints each carry the epoch's wall
// time, and a Dis-SMO rank's rank-done frame its trace spans and flow edges,
// which the job keeps. The Dis-SMO job's merged Chrome trace (cross-process
// Perfetto arrows included), which casvm-profile analyzes, puts every rank on
// rank 0's clock, with offsets read off the flow edges the ranks exchanged.
// The program exits non-zero unless that trace holds one flow edge per
// message the job counted, carrying the job's bytes. With -straggler the last
// executor sleeps five times as long an iteration as the rest, and the RA-CA
// job's epoch table flags its rank against the gang median:
//
//	go run ./examples/distributed -p 4 -fleet-trace merged.trace -straggler 2ms
//	go run ./cmd/casvm-profile merged.trace
//
// Fault tolerance — the Dis-SMO job again, with a kill -9 on one executor
// mid-solve. The coordinator re-gangs the survivors and reruns the mesh
// generation, and the demo fails unless the recovered model lands on the
// in-process hash:
//
//	go run ./examples/distributed -p 3 -kill
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"time"

	"casvm"
	"casvm/internal/cluster"
	"casvm/internal/core"
	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

func main() {
	var (
		p          = flag.Int("p", 4, "executor processes, and the width of every job")
		kill       = flag.Bool("kill", false, "run the fault demo: kill -9 an executor mid-solve of the Dis-SMO job and verify the recovered model hash")
		fleetTrace = flag.String("fleet-trace", "", "write the Dis-SMO job's merged fleet trace here and summarize its critical path")
		straggler  = flag.Duration("straggler", 0, "slow every executor by a quarter of this an iteration and the last by this much more, so the straggler detector flags its rank")
		execAddr   = flag.String("executor", "", "executor mode: register with the coordinator at this address and train assigned ranks")
		execDelay  = flag.Duration("exec-delay", 0, "executor mode: per-iteration training delay")
	)
	flag.Parse()
	if *execAddr != "" {
		err := cluster.RunExecutor(context.Background(), *execAddr, cluster.ExecutorOptions{
			Fleet: true, IterDelay: *execDelay,
		})
		if err != nil {
			log.Fatalf("executor: %v", err)
		}
		return
	}

	start := time.Now()
	stamp := func(format string, a ...any) {
		fmt.Printf("[%6.2fs] "+format+"\n", append([]any{time.Since(start).Seconds()}, a...)...)
	}
	coord, err := cluster.New("127.0.0.1:0", cluster.Config{LeaseTTL: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	delays := make([]time.Duration, *p)
	for i := range delays {
		if *kill {
			delays[i] = time.Millisecond // the solve outlasts the kill
		}
		// A quarter of the straggler delay on every executor keeps the gang's
		// epochs above the detector's 1 ms noise floor on any host.
		delays[i] += *straggler / 4
	}
	delays[*p-1] += *straggler
	executors := spawnExecutors(coord, delays)
	if *straggler > 0 {
		stamp("executors sleep %v an iteration, rank %d's %v more", *straggler/4, *p-1, *straggler)
	}
	defer func() {
		for _, cmd := range executors {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	stamp("coordinator %s: %d executor processes registered", coord.Addr(), *p)

	if *kill {
		killDemo(coord, *p, executors[*p-1], stamp)
		return
	}
	for _, method := range []core.Method{core.MethodDisSMO, core.MethodRACA} {
		j, res := runJob(coord, method, *p, nil)
		stamp("%-6s P=%d: %d messages, %d bytes, %d iterations, %d SVs, virtual %.4fs, wall %.3fs; model hash %s == in-process core.Train",
			method, res.FinalP, res.Messages, res.Bytes, res.Iters, res.SVs, res.TotalSec, res.WallSec, res.ModelHash[:12])
		switch {
		case method == core.MethodRACA:
			stamp("ra-ca: %d routed models; test accuracy %.2f%%", res.FinalP, 100*res.Accuracy)
			if *straggler == 0 {
				continue
			}
			// Every checkpoint of a rank, and the epoch it ends, precedes its
			// rank-done frame on the lease, so the finished job's have all
			// been judged.
			events, _ := coord.Stragglers().Since(0)
			for _, e := range events {
				if e.Job == j.ID() {
					stamp("fleet: STRAGGLER rank %d epoch %d: %.3fs vs gang median %.3fs (%.1fx)",
						e.Rank, e.Epoch, e.Sec, e.MedianSec, e.Factor)
				}
			}
		case *fleetTrace != "":
			if err := writeMergedTrace(j, res, *fleetTrace, stamp); err != nil {
				log.Fatalf("fleet trace: %v", err)
			}
		}
	}
}

// spawnExecutors forks one executor process per entry of delays — its
// per-iteration delay — each registered before the next starts. The
// coordinator gangs workers in registration order, so executor i runs rank i
// of a job's first generation.
func spawnExecutors(coord *cluster.Coordinator, delays []time.Duration) []*exec.Cmd {
	var cmds []*exec.Cmd
	for i, d := range delays {
		cmd := exec.Command(os.Args[0], "-executor", coord.Addr(), "-exec-delay", d.String())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		cmds = append(cmds, cmd)
		for deadline := time.Now().Add(15 * time.Second); len(coord.Workers()) <= i; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				log.Fatalf("executor %d never registered", i)
			}
		}
	}
	return cmds
}

// runJob submits method over the toy set as a job of width p, calls
// during (if non-nil) while it runs, and fails the program unless the job
// lands on the hash of the same training run in-process.
func runJob(coord *cluster.Coordinator, method core.Method, p int, during func(*cluster.Job)) (*cluster.Job, *cluster.JobResult) {
	ds, entry, err := casvm.LoadDataset("toy", 1.0)
	if err != nil {
		log.Fatal(err)
	}
	params := core.DefaultParams(method, p)
	params.Kernel = casvm.RBF(entry.GammaOrDefault())
	ref, err := core.Train(ds.X, ds.Y, params)
	if err != nil {
		log.Fatalf("%s in-process reference: %v", method, err)
	}
	want := ref.Set.Hash()
	j, err := coord.Submit(cluster.JobSpec{
		ID: string(method), Dataset: "toy", Method: string(method), P: p, Seed: params.Seed,
		Policy: "shrink",
	})
	if err != nil {
		log.Fatal(err)
	}
	if during != nil {
		during(j)
	}
	<-j.Done()
	res := j.Result()
	if res.Err != "" {
		log.Fatalf("%s job: %s", method, res.Err)
	}
	if res.ModelHash != want {
		log.Fatalf("%s: remote model hash %s != in-process %s", method, res.ModelHash, want)
	}
	return j, res
}

// killDemo runs the Dis-SMO job and kill -9s victim once the job's mesh
// generation has been training for a moment.
func killDemo(coord *cluster.Coordinator, p int, victim *exec.Cmd, stamp func(string, ...any)) {
	_, res := runJob(coord, core.MethodDisSMO, p, func(j *cluster.Job) {
		for len(j.Remote().Workers) < p {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(300 * time.Millisecond)
		stamp("kill -9 executor pid %d, mid-solve of the %d-rank Dis-SMO mesh", victim.Process.Pid, p)
		if err := victim.Process.Kill(); err != nil {
			log.Fatal(err)
		}
	})
	if res.Generations < 2 {
		log.Fatalf("the job finished in %d generation(s): the kill landed after the solve", res.Generations)
	}
	stamp("recovered over %d generations (%d recovery, finished at P=%d, virtual time %.4fs)",
		res.Generations, res.Recoveries, res.FinalP, res.TotalSec)
	stamp("recovered hash %s == in-process core.Train — kill -9 cost a generation, not bits", res.ModelHash[:12])
}

// writeMergedTrace writes the job's offset-rebased merged Chrome trace —
// every rank's timeline rides its rank-done frame and is stored before the
// rank counts, so the finished job's is complete — checks that it holds one
// flow edge per message the job counted, carrying the job's bytes, and
// summarizes the cross-process critical path inline.
func writeMergedTrace(j *cluster.Job, res *cluster.JobResult, path string, stamp func(string, ...any)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = j.WriteTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	stamp("fleet: merged trace written to %s (open in Perfetto or run casvm-profile on it)", path)
	rf, err := os.Open(path)
	if err != nil {
		return err
	}
	extra, err := trace.ReadTraceExtra(rf)
	rf.Close()
	if err != nil {
		return fmt.Errorf("re-reading merged trace: %w", err)
	}
	var bytes int64
	for _, e := range extra.Edges {
		bytes += int64(e.Bytes)
	}
	if int64(len(extra.Edges)) != res.Messages || bytes != res.Bytes {
		return fmt.Errorf("the merged trace holds %d edges carrying %d bytes; the job counted %d messages, %d bytes",
			len(extra.Edges), bytes, res.Messages, res.Bytes)
	}
	stamp("fleet: merged trace holds %d edges, %d bytes == the job's messages and bytes", len(extra.Edges), bytes)
	a, err := critpath.Analyze(critpath.FromExtra(extra))
	if err != nil {
		return fmt.Errorf("analyzing merged trace: %w", err)
	}
	stamp("fleet: critical path %.3fs ending on rank %d (%d cross-rank hops): comp %.3fs, latency %.3fs, wait %.3fs",
		a.MakespanSec, a.EndRank, a.Hops, a.CompSec, a.LatencySec, a.WaitSec)
	return nil
}
