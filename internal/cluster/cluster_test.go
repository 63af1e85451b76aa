package cluster

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/tcpmpi"
)

// testMixture is the test dataset every method learns well — the same
// construction core's recovery suite uses, so iteration counts are long
// enough to drive membership churn through mid-run.
func testMixture(train int) *data.MixtureSpec {
	return &data.MixtureSpec{
		Name: "cluster-test", Train: train, Test: train / 4, Features: 8,
		Clusters: 4, Separation: 7, Noise: 1, PosFrac: []float64{0.5},
		LabelNoise: 0.02, Margin: 1.0, Seed: 42,
	}
}

// trainParams resolves a spec the way a coordinator with nothing memoised
// does: what the tests train their local references on.
func trainParams(s JobSpec) (core.Params, *data.Dataset, error) {
	return new(datasetMemo).trainParams(s)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// testLog is t.Logf until stop is called. A registrar's frame loops outlive
// its Close by a moment — a worker killed in a cleanup is reported "gone"
// from one — and a line logged after the test returned is a panic, so a test
// coordinator's cleanup stops its log before it closes.
func testLog(t *testing.T) (logf func(string, ...any), stop func()) {
	var over atomic.Bool
	return func(format string, args ...any) {
		if !over.Load() {
			t.Logf(format, args...)
		}
	}, func() { over.Store(true) }
}

func newTestCoordinator(t *testing.T, ttl time.Duration) *Coordinator {
	t.Helper()
	logf, stop := testLog(t)
	c, err := New("localhost:0", Config{LeaseTTL: ttl, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stop(); c.Close() })
	return c
}

// TestClusterGoldenScaleUp is the acceptance scenario for the elastic
// runtime: an RA-CA job on a gang of four executors loses two of them to
// lease revocation mid-epoch — each loss re-gangs the survivors from the
// streamed checkpoints — then two replacement executors join, the scheduler
// attaches them, the supervisor re-spreads the pending ranks onto the wider
// gang, and the final model carries the exact fault-free ModelHash.
func TestClusterGoldenScaleUp(t *testing.T) {
	spec := remoteSpec("golden", 4, 480, "shrink")
	want := referenceHash(t, spec)

	c := newTestCoordinator(t, 500*time.Millisecond)
	startExecutors(t, c, 4, time.Millisecond)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Two lease revocations, each of a member of the generation running at
	// the time: the first once every rank has streamed a checkpoint.
	killGangMemberMidEpoch(t, c, j)
	waitFor(t, "the survivors' generation", func() bool { return j.Remote().Generation == 2 })
	gang := j.Remote().Workers
	if err := c.Revoke(gang[len(gang)-1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second re-gang", func() bool { return j.Remote().Generation == 3 })

	// Two replacement executors join mid-run: the gang widens back to four.
	startExecutors(t, c, 2, time.Millisecond)
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job never finished (progress %+v)", j.Remote())
	}
	res := j.Result()
	if res.Err != "" {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.ModelHash != want {
		t.Fatalf("churned run hash %s != fault-free hash %s", res.ModelHash, want)
	}
	if res.FinalP != 4 || res.Recoveries != 2 {
		t.Fatalf("FinalP=%d Recoveries=%d, want 4 and 2", res.FinalP, res.Recoveries)
	}
	if res.Grows < 1 || res.JoinedRanks != 2 {
		t.Fatalf("Grows=%d JoinedRanks=%d, want >=1 and 2", res.Grows, res.JoinedRanks)
	}

	snap := c.Metrics().Snapshot()
	if got := snap["cluster_lease_expiries_total"]; got != 2 {
		t.Fatalf("cluster_lease_expiries_total=%v, want 2", got)
	}
	if got := snap["cluster_job_scaleups_total"]; got != float64(res.Grows) {
		t.Fatalf("cluster_job_scaleups_total=%v, want Grows=%d", got, res.Grows)
	}
	// The job's private metrics namespace carries the grow counter.
	if got := j.Metrics().Snapshot()["casvm_grows_total"]; got != float64(res.Grows) {
		t.Fatalf("job casvm_grows_total=%v, want Grows=%d", got, res.Grows)
	}
}

// TestGrowCountsWorkerAttachedBeforeDispatch: a worker that attaches after a
// widening re-gang's abort, before the wider generation is dispatched, runs in
// that generation and counts among the joined ranks. The scale-up of
// TestClusterGoldenScaleUp, with the second replacement executor started
// inside that window (the coordinator's afterGrowAbort) and attached before
// the supervisor goes on.
func TestGrowCountsWorkerAttachedBeforeDispatch(t *testing.T) {
	spec := remoteSpec("late-joiner", 4, 480, "shrink")
	want := referenceHash(t, spec)

	c := newTestCoordinator(t, 500*time.Millisecond)
	attached := func(j *Job) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(j.gang)
	}
	// join starts one executor without waiting for it: the hook runs on the
	// job's goroutine, where a test may not fail.
	join := func() {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = RunExecutor(ctx, c.Addr(), ExecutorOptions{Fleet: true, IterDelay: time.Millisecond})
		}()
		t.Cleanup(func() { cancel(); <-done })
	}
	var fired atomic.Int32
	hookErr := make(chan string, 1)
	c.afterGrowAbort = func(j *Job) {
		if fired.Add(1) > 1 {
			return
		}
		before := attached(j)
		join()
		for deadline := time.Now().Add(30 * time.Second); attached(j) <= before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				hookErr <- "the late executor never attached"
				return
			}
		}
	}
	startExecutors(t, c, 4, time.Millisecond)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	killGangMemberMidEpoch(t, c, j)
	waitFor(t, "the survivors' generation", func() bool { return j.Remote().Generation == 2 })
	gang := j.Remote().Workers
	if err := c.Revoke(gang[len(gang)-1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second re-gang", func() bool { return j.Remote().Generation == 3 })

	// One replacement executor: its attach grows the gang, and the hook
	// attaches the other inside the window.
	join()
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job never finished (progress %+v)", j.Remote())
	}
	select {
	case msg := <-hookErr:
		t.Fatal(msg)
	default:
	}
	res := j.Result()
	if res.Err != "" {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.ModelHash != want {
		t.Fatalf("hash %s != fault-free hash %s", res.ModelHash, want)
	}
	if fired.Load() != 1 || res.Grows != 1 || res.JoinedRanks != 2 {
		t.Fatalf("hook fired %d times, Grows=%d JoinedRanks=%d, want 1, 1 and 2", fired.Load(), res.Grows, res.JoinedRanks)
	}
}

// TestRespawnBackfill: under the respawn policy a Dis-SMO mesh that loses an
// executor waits for a joining one to backfill the gang to full width, then
// reruns the generation; the world never grows, and the rerun lands on the
// fault-free hash.
func TestRespawnBackfill(t *testing.T) {
	spec := remoteSpec("backfill", 2, 240, "respawn")
	spec.Method = string(core.MethodDisSMO)
	want := referenceHash(t, spec)

	c := newTestCoordinator(t, 500*time.Millisecond)
	// The second executor, the one revoked, holds the first mesh open; the
	// rerun goes at full speed.
	startExecutors(t, c, 1, 0)
	startExecutors(t, c, 1, time.Millisecond)
	waitFor(t, "both executors registered", func() bool { return len(c.Workers()) == 2 })
	slow := c.Workers()[1].ID
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the mesh generation dispatched", func() bool { return len(j.Remote().Workers) == 2 })
	if err := c.Revoke(slow); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gang degraded", func() bool { return len(j.Gang()) == 1 })
	// A fresh executor arrives: it must backfill the gang, not grow the world.
	startExecutors(t, c, 1, 0)

	<-j.Done()
	res := j.Result()
	if res.Err != "" {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.FinalP != 2 || res.Recoveries != 1 || res.Grows != 0 {
		t.Fatalf("FinalP=%d Recoveries=%d Grows=%d, want 2/1/0",
			res.FinalP, res.Recoveries, res.Grows)
	}
	if res.ModelHash != want {
		t.Fatalf("respawned run hash %s != fault-free hash %s", res.ModelHash, want)
	}
}

// TestGangScheduling: jobs queue until a full gang of Spec.P workers is
// free, run FIFO, and released workers are reused by the next job.
func TestGangScheduling(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 3, 500*time.Microsecond)

	spec := remoteSpec("gang", 2, 160, "shrink")
	spec.Seed = 5
	j1, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job running", func() bool { return j1.State() == JobRunning })

	// One free worker left: a second 2-wide job must queue.
	j2, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.State(); st != JobQueued && j1.State() == JobRunning {
		t.Fatalf("second job state %v while the pool is exhausted, want queued", st)
	}

	select {
	case <-j2.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("queued job never ran")
	}
	<-j1.Done()
	for _, j := range []*Job{j1, j2} {
		res := j.Result()
		if res == nil || res.Err != "" {
			t.Fatalf("job %s: %+v", j.ID(), res)
		}
		if res.Accuracy < 0.85 {
			t.Fatalf("job %s accuracy %.3f", j.ID(), res.Accuracy)
		}
	}
	snap := c.Metrics().Snapshot()
	if snap["cluster_jobs_completed_total"] != 2 {
		t.Fatalf("cluster_jobs_completed_total=%v, want 2", snap["cluster_jobs_completed_total"])
	}
	if snap["cluster_workers_busy"] != 0 {
		t.Fatalf("cluster_workers_busy=%v after both jobs finished", snap["cluster_workers_busy"])
	}
}

// TestWireSubmitAndWait covers the thin-client path: executors join, a
// client submits over TCP and blocks for the result, and the membership
// counters record the full join/leave cycle.
func TestWireSubmitAndWait(t *testing.T) {
	c := newTestCoordinator(t, time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- RunExecutor(ctx, c.Addr(), ExecutorOptions{}) }()
	startExecutors(t, c, 2, 0)
	waitFor(t, "all workers", func() bool { return len(c.Workers()) == 3 })

	res, err := SubmitAndWait(c.Addr(), JobSpec{
		ID: "wire", Mixture: testMixture(160), Method: string(core.MethodRACA),
		P: 3, Seed: 7,
	}, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelHash == "" || res.FinalP != 3 || res.Accuracy < 0.85 {
		t.Fatalf("thin-client result %+v", res)
	}
	if !strings.HasPrefix(res.ID, "wire-") {
		t.Fatalf("result id %q does not carry the client label", res.ID)
	}

	// An unrunnable spec comes back as an error, not a hang.
	if _, err := SubmitAndWait(c.Addr(), JobSpec{Method: "nope", P: 1, Dataset: "toy"},
		30*time.Second); err == nil {
		t.Fatal("bogus method accepted")
	}

	// Clean worker departure: a leave, not an expiry.
	cancel()
	if err := <-workerDone; err != nil {
		t.Fatalf("RunExecutor: %v", err)
	}
	waitFor(t, "leave counted", func() bool {
		return c.Metrics().Snapshot()["cluster_worker_leaves_total"] >= 1
	})
	snap := c.Metrics().Snapshot()
	if snap["cluster_worker_joins_total"] < 3 {
		t.Fatalf("cluster_worker_joins_total=%v, want >=3", snap["cluster_worker_joins_total"])
	}
	if snap["cluster_jobs_completed_total"] != 1 {
		t.Fatalf("cluster_jobs_completed_total=%v, want 1", snap["cluster_jobs_completed_total"])
	}
	if snap["cluster_lease_expiries_total"] != 0 {
		t.Fatalf("clean shutdown produced %v expiries", snap["cluster_lease_expiries_total"])
	}
}

// TestSubmitIdempotencyKey: a resubmission carrying a SubmitKey the
// coordinator already accepted attaches to the existing job instead of
// double-running the work — the guarantee SubmitWithRetry leans on when a
// transport error lands after the submit frame was delivered.
func TestSubmitIdempotencyKey(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 2, 0)
	spec := JobSpec{
		ID: "idem", Mixture: testMixture(160), Method: string(core.MethodDisSMO),
		P: 2, Seed: 1, SubmitKey: "client-key-1",
	}
	want := referenceHash(t, spec)
	j1, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatalf("resubmission with key %q started a second job (%s vs %s)",
			spec.SubmitKey, j1.ID(), j2.ID())
	}
	if got := c.Metrics().Snapshot()["cluster_jobs_submitted_total"]; got != 1 {
		t.Fatalf("cluster_jobs_submitted_total=%v after a deduplicated resubmit, want 1", got)
	}

	// A different key — and no key at all — still means a new job.
	spec.SubmitKey = "client-key-2"
	j3, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j3 == j1 {
		t.Fatal("distinct keys deduplicated")
	}
	spec.SubmitKey = ""
	j4, _ := c.Submit(spec)
	j5, _ := c.Submit(spec)
	if j4 == j5 {
		t.Fatal("keyless submissions deduplicated")
	}

	// The key crosses the trust boundary in the spec; unbounded keys are
	// rejected before they reach the dedup table.
	spec.SubmitKey = strings.Repeat("k", 129)
	if _, err := c.Submit(spec); err == nil {
		t.Fatal("oversize submit key accepted")
	}

	// Four jobs ran, each once, on the executors.
	for _, j := range []*Job{j1, j3, j4, j5} {
		<-j.Done()
		if res := j.Result(); res.Err != "" || res.ModelHash != want {
			t.Fatalf("job %s: %+v, want hash %s", j.ID(), res, want)
		}
	}
	if got := c.Metrics().Snapshot()["cluster_jobs_completed_total"]; got != 4 {
		t.Fatalf("cluster_jobs_completed_total=%v, want 4", got)
	}
}

// TestSubmitValidation: broken specs are rejected at submission — among
// them a job that asks for no recovery, which no worker death could spare.
func TestSubmitValidation(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	for _, spec := range []JobSpec{
		{Method: "nope", P: 2, Dataset: "toy"},
		{Method: string(core.MethodRACA), P: 0, Dataset: "toy"},
		{Method: string(core.MethodRACA), P: 2},
		{Method: string(core.MethodRACA), P: 2, Dataset: "no-such-set"},
		{Method: string(core.MethodRACA), P: 2, Dataset: "toy", Policy: "retry-forever"},
		{Method: string(core.MethodRACA), P: 2, Dataset: "toy", Policy: "off"},
	} {
		if _, err := c.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if n := c.Metrics().Snapshot()["cluster_jobs_submitted_total"]; n != 0 {
		t.Fatalf("rejected specs counted as submissions: %v", n)
	}
}

// leaseEnded returns a channel closed once l ends. No coordinator frame
// carries tag -1, so that receive returns only with the lease's end.
func leaseEnded(l *tcpmpi.Lease) <-chan struct{} {
	ch := make(chan struct{})
	go func() { l.Recv(-1, 0); close(ch) }()
	return ch
}

// TestCloseEndsRunningJobs: Close ends every job, whatever its supervisor is
// waiting on — a respawn job that lost a worker with no spare to backfill it
// waits for its gang, an RA-CA job whose executors are still solving waits
// for its generation, and a third job is still queued — and returns within
// closeBound. Every job's Done is closed and its error names the closed
// coordinator.
func TestCloseEndsRunningJobs(t *testing.T) {
	const closeBound = 5 * time.Second
	c, logged := newLoggedCoordinator(t, Config{})
	// Four slow executors: two for each running job, none spare.
	startExecutors(t, c, 4, 20*time.Millisecond)
	waitFor(t, "four executors registered", func() bool { return len(c.Workers()) == 4 })

	gangWait, err := c.Submit(remoteSpec("gang-wait", 2, 480, "respawn"))
	if err != nil {
		t.Fatal(err)
	}
	genWait, err := c.Submit(remoteSpec("gen-wait", 2, 480, "shrink"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(remoteSpec("queued", 2, 480, "shrink"))
	if err != nil {
		t.Fatal(err)
	}
	if s := queued.State(); s != JobQueued {
		t.Fatalf("third job %s, want queued", s)
	}

	waitFor(t, "the respawn job's generation dispatched", func() bool { return len(gangWait.Remote().Workers) == 2 })
	if err := c.Revoke(gangWait.Gang()[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the respawn job waiting for its gang", func() bool {
		return logged("job "+gangWait.ID()+" waiting for its gang") > 0
	})
	waitFor(t, "the RA-CA job's ranks mid-generation", func() bool {
		p := genWait.Remote()
		return len(p.CkptIters) == 2 && len(p.DoneRanks) == 0
	})

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(closeBound):
		t.Fatalf("Close did not return within %v", closeBound)
	}
	for _, j := range []*Job{gangWait, genWait, queued} {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not done after Close", j.ID())
		}
		if res := j.Result(); res == nil || !strings.Contains(res.Err, "coordinator closed") {
			t.Errorf("job %s: result %+v, want an error naming the closed coordinator", j.ID(), res)
		}
	}
}
