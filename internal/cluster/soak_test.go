package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"casvm/internal/core"
)

// TestClusterSoak churns a live coordinator for a bounded interval: a
// stream of shrink-policy jobs shares a pool of executors (RunExecutor
// goroutines) that are randomly revoked and replaced, so RA-CA generations
// resume from streamed checkpoints and mesh generations are torn down and
// re-ganged. Every job must terminate (completed or cleanly failed — no
// hangs), and a completed job must land on its fault-free hash: Dis-SMO and
// RA-CA on the hash of the requested width, Cascade on the hash of the width
// it finished at. Gated behind CASVM_SOAK_CLUSTER=1; run via
// `make soak-cluster`.
func TestClusterSoak(t *testing.T) {
	if os.Getenv("CASVM_SOAK_CLUSTER") != "1" {
		t.Skip("set CASVM_SOAK_CLUSTER=1 (or `make soak-cluster`) to run the cluster churn soak")
	}
	rng := rand.New(rand.NewSource(11))
	c := newTestCoordinator(t, 400*time.Millisecond)

	// Executors end when their lease is revoked; the cleanup stops the rest.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	spawn := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = RunExecutor(ctx, c.Addr(), ExecutorOptions{IterDelay: time.Millisecond})
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })
	const poolSize = 6
	for i := 0; i < poolSize; i++ {
		spawn()
	}
	waitFor(t, "pool registered", func() bool { return len(c.Workers()) == poolSize })

	methods := []core.Method{core.MethodDisSMO, core.MethodRACA, core.MethodCascade}
	var jobs []*Job
	for i := 0; i < 6; i++ {
		spec := JobSpec{
			ID:      fmt.Sprintf("soak%d", i),
			Mixture: testMixture(240),
			Method:  string(methods[i%len(methods)]),
			P:       2 + i%2,
			Seed:    int64(100 + i),
			Policy:  "shrink", CheckpointEvery: 8,
		}
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	// Churn loop: revoke a random live executor, wait a beat, start a
	// replacement. Capacity always recovers, so shrink-policy jobs can grow
	// back.
	stopChurn := make(chan struct{})
	churnDone := make(chan int)
	go func() {
		churns := 0
		defer func() { churnDone <- churns }()
		for {
			select {
			case <-stopChurn:
				return
			case <-time.After(150 * time.Millisecond):
			}
			ws := c.Workers()
			if len(ws) == 0 {
				continue
			}
			if err := c.Revoke(ws[rng.Intn(len(ws))].ID); err != nil {
				continue
			}
			churns++
			time.Sleep(100 * time.Millisecond)
			spawn()
		}
	}()

	// Bounded soak: jobs run under churn for up to 20s, then drain on the
	// settled pool.
	deadline := time.After(20 * time.Second)
churn:
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-deadline:
			break churn
		}
	}
	close(stopChurn)
	churns := <-churnDone
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(180 * time.Second):
			t.Fatalf("job %s hung (state %v, progress %+v)", j.ID(), j.State(), j.Remote())
		}
	}

	completed := 0
	for _, j := range jobs {
		res := j.Result()
		if res.Err != "" {
			t.Logf("job %s failed under churn: %s", j.ID(), res.Err)
			continue
		}
		completed++
		spec := j.spec
		if spec.Method == string(core.MethodCascade) {
			spec.P = res.FinalP
		}
		if want := referenceHash(t, spec); res.ModelHash != want {
			t.Errorf("job %s (%s, finalP=%d) hash %s != fault-free %s", j.ID(), spec.Method, res.FinalP, res.ModelHash, want)
		}
		t.Logf("job %s: iters=%d generations=%d recoveries=%d grows=%d finalP=%d",
			j.ID(), res.Iters, res.Generations, res.Recoveries, res.Grows, res.FinalP)
	}
	if completed < len(jobs)/2 {
		t.Fatalf("only %d/%d jobs completed under churn", completed, len(jobs))
	}
	snap := c.Metrics().Snapshot()
	t.Logf("soak: churns=%d joins=%v expiries=%v scaleups=%v completed=%d/%d",
		churns, snap["cluster_worker_joins_total"], snap["cluster_lease_expiries_total"],
		snap["cluster_job_scaleups_total"], completed, len(jobs))
	if snap["cluster_lease_expiries_total"] < 1 {
		t.Error("soak produced no lease expiries; churn loop never bit")
	}
	if snap["cluster_workers_busy"] != 0 {
		t.Errorf("cluster_workers_busy=%v after drain", snap["cluster_workers_busy"])
	}
}

// TestRemoteSoak is the process churn scenario: a stream of jobs trains on
// a pool of real worker processes while a churn loop
// repeatedly kill -9s a random worker and forks a replacement. Every job
// must terminate, and every job that completes must land on the exact
// fault-free ModelHash of its local reference — re-ganging across process
// deaths may cost generations, never bits. Gated behind
// CASVM_SOAK_CLUSTER=1; run via `make soak-cluster`.
func TestRemoteSoak(t *testing.T) {
	if os.Getenv("CASVM_SOAK_CLUSTER") != "1" {
		t.Skip("set CASVM_SOAK_CLUSTER=1 (or `make soak-cluster`) to run the remote-execution churn soak")
	}
	rng := rand.New(rand.NewSource(13))
	c := newTestCoordinator(t, 500*time.Millisecond)

	// The churn goroutine forks and kills workers concurrently with test
	// shutdown, so the process ledger has its own lock and one terminal
	// cleanup that reaps whatever is still alive.
	var mu sync.Mutex
	var procs []*exec.Cmd
	spawn := func() error {
		cmd := exec.Command(os.Args[0], "-test.run", "TestRemoteExecutorHelper$")
		cmd.Env = append(os.Environ(),
			"CASVM_REMOTE_WORKER="+c.Addr(),
			"CASVM_EXEC_DELAY="+(2*time.Millisecond).String(),
		)
		if err := cmd.Start(); err != nil {
			return err
		}
		mu.Lock()
		procs = append(procs, cmd)
		mu.Unlock()
		return nil
	}
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, cmd := range procs {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
			cmd.Wait()
		}
	})

	const poolSize = 3
	for i := 0; i < poolSize; i++ {
		if err := spawn(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "worker pool registered", func() bool { return len(c.Workers()) == poolSize })

	var jobs []*Job
	var wants []string
	for i := 0; i < 4; i++ {
		spec := remoteSpec(fmt.Sprintf("rsoak%d", i), 2, 240, "shrink")
		spec.Seed = int64(50 + i)
		wants = append(wants, referenceHash(t, spec))
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	// Churn loop: kill -9 a random live worker process, fork a
	// replacement. The pool's capacity recovers, so queued remote jobs
	// always eventually find a gang.
	stopChurn := make(chan struct{})
	churnDone := make(chan int)
	go func() {
		churns := 0
		defer func() { churnDone <- churns }()
		for {
			select {
			case <-stopChurn:
				return
			case <-time.After(400 * time.Millisecond):
			}
			mu.Lock()
			var live []*exec.Cmd
			for _, cmd := range procs {
				if cmd.ProcessState == nil {
					live = append(live, cmd)
				}
			}
			mu.Unlock()
			if len(live) == 0 {
				continue
			}
			victim := live[rng.Intn(len(live))]
			if victim.Process.Kill() != nil {
				continue
			}
			go victim.Wait() // reap; cmd.Wait is not concurrent-safe with the cleanup, but the cleanup only runs after stopChurn
			churns++
			if err := spawn(); err != nil {
				t.Logf("remote soak: replacement worker: %v", err)
			}
		}
	}()

	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(180 * time.Second):
			close(stopChurn)
			<-churnDone
			t.Fatalf("remote job %s hung under churn (state %v, progress %+v)", j.ID(), j.State(), j.Remote())
		}
	}
	close(stopChurn)
	churns := <-churnDone

	completed, recoveries, generations := 0, 0, 0
	for i, j := range jobs {
		res := j.Result()
		if res.Err != "" {
			t.Logf("remote job %s failed under churn: %s", j.ID(), res.Err)
			continue
		}
		completed++
		recoveries += res.Recoveries
		generations += res.Generations
		if res.ModelHash != wants[i] {
			t.Errorf("remote job %s hash %s != fault-free %s", j.ID(), res.ModelHash, wants[i])
		}
		t.Logf("remote job %s: generations=%d recoveries=%d finalP=%d virt=%.4fs",
			j.ID(), res.Generations, res.Recoveries, res.FinalP, res.TotalSec)
	}
	if completed < len(jobs)/2 {
		t.Fatalf("only %d/%d remote jobs completed under churn", completed, len(jobs))
	}
	if churns >= 1 && recoveries == 0 && generations == completed {
		t.Logf("remote soak: %d kills never hit a gang member (small pool luck)", churns)
	}
	snap := c.Metrics().Snapshot()
	t.Logf("remote soak: churns=%d completed=%d/%d generations=%d recoveries=%d departures=%v",
		churns, completed, len(jobs), generations, recoveries,
		snap["cluster_lease_expiries_total"]+snap["cluster_worker_leaves_total"])
	if churns < 1 {
		t.Error("remote soak produced no kills; churn loop never bit")
	}
}
