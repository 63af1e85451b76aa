package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/tcpmpi"
)

// testMixture is the in-process test dataset every method learns well —
// the same construction core's recovery suite uses, so iteration counts
// are long enough to drive membership churn through mid-run.
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

func registerWorkers(t *testing.T, c *Coordinator, n int) []*tcpmpi.Lease {
	t.Helper()
	leases := make([]*tcpmpi.Lease, n)
	for i := range leases {
		l, err := tcpmpi.Register(c.Addr(), tcpmpi.RegisterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		leases[i] = l
	}
	waitFor(t, "workers registered", func() bool { return len(c.Workers()) >= n })
	return leases
}

// TestClusterGoldenScaleUp is the acceptance scenario for the elastic
// runtime: a Dis-SMO job on a gang of 8 loses two workers to lease
// revocation mid-run (shrinking the world 8 -> 7 -> 6), two replacement
// workers dial in, the world grows back to 8 at a checkpoint epoch
// boundary, and the final model carries the exact fault-free ModelHash.
func TestClusterGoldenScaleUp(t *testing.T) {
	spec := JobSpec{
		ID: "golden", Mixture: testMixture(480), Method: string(core.MethodDisSMO),
		P: 8, Seed: 1, CheckpointEvery: 8, Policy: "shrink",
	}

	// Local fault-free reference run with the identical parameter build.
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	cleanOut, err := core.Train(ds.X, ds.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	cleanHash, err := core.ModelHash(cleanOut.Set)
	if err != nil {
		t.Fatal(err)
	}
	if cleanOut.Stats.Iters < 48 {
		t.Fatalf("reference run converged in %d iters; churn window unreachable", cleanOut.Stats.Iters)
	}

	c := newTestCoordinator(t, 500*time.Millisecond)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The job is queued (no workers yet): safe to slow its iteration
	// clock so the churn sequence lands mid-run deterministically.
	j.inj.setThrottle(2 * time.Millisecond)

	leases := registerWorkers(t, c, 8)
	waitFor(t, "job running", func() bool { return j.State() == JobRunning })
	waitFor(t, "training underway", func() bool { i, _, _, _ := j.inj.snapshot(); return i >= 8 })

	// Two lease revocations: the membership table expires the workers and
	// the supervisor shrinks the world.
	if err := c.reg.Revoke(leases[7].ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first shrink", func() bool { _, k, _, _ := j.inj.snapshot(); return k >= 1 })
	if err := c.reg.Revoke(leases[6].ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second shrink", func() bool { _, k, _, _ := j.inj.snapshot(); return k >= 2 })

	// Two replacement workers join mid-run; the scheduler attaches them
	// to the degraded job and the world grows back at the next epoch.
	registerWorkers(t, c, 2)
	waitFor(t, "scale-up back to 8", func() bool {
		_, _, g, w := j.inj.snapshot()
		return g >= 2 && w == 8
	})

	j.inj.setThrottle(0)
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("job never finished")
	}
	res := j.Result()
	if res.Err != "" {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.FinalP != 8 {
		t.Fatalf("FinalP=%d, want 8", res.FinalP)
	}
	if res.Recoveries != 2 {
		t.Fatalf("Recoveries=%d, want 2", res.Recoveries)
	}
	if res.Grows < 1 || res.JoinedRanks != 2 {
		t.Fatalf("Grows=%d JoinedRanks=%d, want >=1 and 2", res.Grows, res.JoinedRanks)
	}
	if res.ModelHash != cleanHash {
		t.Fatalf("churned run hash %s != fault-free hash %s", res.ModelHash, cleanHash)
	}
	if res.Iters != cleanOut.Stats.Iters {
		t.Fatalf("churned run iters=%d != fault-free iters=%d", res.Iters, cleanOut.Stats.Iters)
	}
	if res.Accuracy < 0.88 {
		t.Fatalf("accuracy %.3f < 0.88", res.Accuracy)
	}

	snap := c.Metrics().Snapshot()
	if got := snap["cluster_lease_expiries_total"]; got != 2 {
		t.Fatalf("cluster_lease_expiries_total=%v, want 2", got)
	}
	if got := snap["cluster_job_scaleups_total"]; got != 2 {
		t.Fatalf("cluster_job_scaleups_total=%v, want 2", got)
	}
	// The job's private metrics namespace carries the grow counters.
	jsnap := j.Metrics().Snapshot()
	if jsnap["casvm_grow_ranks_total"] != 2 {
		t.Fatalf("job casvm_grow_ranks_total=%v, want 2", jsnap["casvm_grow_ranks_total"])
	}
}

// TestRespawnBackfill: under the respawn policy a lost worker's rank
// restarts from checkpoint at fixed width, and a joining worker backfills
// pool capacity without growing the world. Dis-SMO respawn is
// bit-identical, so the hash still matches the fault-free run.
func TestRespawnBackfill(t *testing.T) {
	spec := JobSpec{
		Mixture: testMixture(240), Method: string(core.MethodDisSMO),
		P: 2, Seed: 3, CheckpointEvery: 8, Policy: "respawn",
	}
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	cleanOut, err := core.Train(ds.X, ds.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	cleanHash, err := core.ModelHash(cleanOut.Set)
	if err != nil {
		t.Fatal(err)
	}

	c := newTestCoordinator(t, 500*time.Millisecond)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j.inj.setThrottle(2 * time.Millisecond)
	leases := registerWorkers(t, c, 2)
	waitFor(t, "training underway", func() bool { i, _, _, _ := j.inj.snapshot(); return i >= 8 })

	if err := c.reg.Revoke(leases[1].ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "respawn kill", func() bool { _, k, _, _ := j.inj.snapshot(); return k >= 1 })
	// A fresh worker arrives: it must backfill the gang, not grow the world.
	registerWorkers(t, c, 1)
	waitFor(t, "backfill", func() bool { return len(j.Gang()) == 2 })

	j.inj.setThrottle(0)
	<-j.Done()
	res := j.Result()
	if res.Err != "" {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.FinalP != 2 || res.Recoveries != 1 || res.Grows != 0 {
		t.Fatalf("FinalP=%d Recoveries=%d Grows=%d, want 2/1/0",
			res.FinalP, res.Recoveries, res.Grows)
	}
	if res.ModelHash != cleanHash {
		t.Fatalf("respawned run hash %s != fault-free hash %s", res.ModelHash, cleanHash)
	}
}

// TestGangScheduling: jobs queue until a full gang of Spec.P workers is
// free, run FIFO, and released workers are reused by the next job.
func TestGangScheduling(t *testing.T) {
	c := newTestCoordinator(t, time.Second)

	spec := JobSpec{
		Mixture: testMixture(160), Method: string(core.MethodRACA),
		P: 2, Seed: 5,
	}
	// Submit before any workers exist: the job queues, which makes it
	// safe to slow its iteration clock before it starts.
	j1, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j1.inj.setThrottle(2 * time.Millisecond)
	registerWorkers(t, c, 3)
	waitFor(t, "first job running", func() bool { return j1.State() == JobRunning })

	// One free worker left: a second 2-wide job must queue.
	j2, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.State(); st != JobQueued {
		t.Fatalf("second job state %v while the pool is exhausted, want queued", st)
	}

	j1.inj.setThrottle(0)
	select {
	case <-j2.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("queued job never ran")
	}
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

// TestWireSubmitAndWait covers the thin-client path: a worker joins via
// JoinWorker, a client submits over TCP and blocks for the result, and
// the membership counters record the full join/leave cycle.
func TestWireSubmitAndWait(t *testing.T) {
	c := newTestCoordinator(t, time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- JoinWorker(ctx, c.Addr()) }()
	registerWorkers(t, c, 2) // one more direct lease; JoinWorker's makes 3
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
		t.Fatalf("JoinWorker: %v", err)
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

// TestUnsupervisedExpiryFailsJob: with recovery off, a lease expiry still
// reaches the job as a crash — and fails it fast instead of hanging the
// gang.
func TestUnsupervisedExpiryFailsJob(t *testing.T) {
	c := newTestCoordinator(t, 500*time.Millisecond)
	spec := JobSpec{
		Mixture: testMixture(240), Method: string(core.MethodDisSMO),
		P: 2, Seed: 9, Policy: "off",
	}
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j.inj.setThrottle(2 * time.Millisecond)
	leases := registerWorkers(t, c, 2)
	waitFor(t, "training underway", func() bool { i, _, _, _ := j.inj.snapshot(); return i >= 4 })

	if err := c.reg.Revoke(leases[0].ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("unsupervised job survived a lease expiry")
	}
	res := j.Result()
	if res.Err == "" || !strings.Contains(res.Err, "lease expired") {
		t.Fatalf("want a lease-expired failure, got %+v", res)
	}
	if c.Metrics().Snapshot()["cluster_jobs_failed_total"] != 1 {
		t.Fatal("failed job not counted")
	}
}

// TestSubmitValidation: broken specs are rejected at submission.
// TestSubmitIdempotencyKey: a resubmission carrying a SubmitKey the
// coordinator already accepted attaches to the existing job instead of
// double-running the work — the guarantee SubmitWithRetry leans on when a
// transport error lands after the submit frame was delivered.
func TestSubmitIdempotencyKey(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	spec := JobSpec{
		ID: "idem", Mixture: testMixture(160), Method: string(core.MethodDisSMO),
		P: 2, Seed: 1, SubmitKey: "client-key-1",
	}
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
}

func TestSubmitValidation(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	for _, spec := range []JobSpec{
		{Method: "nope", P: 2, Dataset: "toy"},
		{Method: string(core.MethodRACA), P: 0, Dataset: "toy"},
		{Method: string(core.MethodRACA), P: 2},
		{Method: string(core.MethodRACA), P: 2, Dataset: "no-such-set"},
		{Method: string(core.MethodRACA), P: 2, Dataset: "toy", Policy: "retry-forever"},
	} {
		if _, err := c.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if n := c.Metrics().Snapshot()["cluster_jobs_submitted_total"]; n != 0 {
		t.Fatalf("rejected specs counted as submissions: %v", n)
	}
}

// JoinWorker registers with the coordinator at addr as a worker and blocks
// until the lease ends (coordinator shutdown or revocation) or ctx is
// cancelled. It returns nil on a clean ctx-driven departure — the
// coordinator sees a leave, not an expiry.
func JoinWorker(ctx context.Context, addr string) error {
	l, err := tcpmpi.Register(addr, tcpmpi.RegisterOptions{})
	if err != nil {
		return fmt.Errorf("cluster: register with %s: %w", addr, err)
	}
	select {
	case <-ctx.Done():
		l.Close()
		return nil
	case <-l.Done():
		return l.Err()
	}
}

// snapshot returns the injector's progress counters.
func (in *elasticInjector) snapshot() (iters, killed, grown, width int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.iters, in.killed, in.grown, in.width
}

func (in *elasticInjector) setThrottle(d time.Duration) {
	in.mu.Lock()
	in.throttle = d
	in.mu.Unlock()
}
