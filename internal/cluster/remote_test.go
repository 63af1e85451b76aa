package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/smo"
	"casvm/internal/tcpmpi"
)

// remoteSpec is the test job: RA-CA over the shared test mixture,
// checkpointing often enough that a mid-epoch kill always finds a resume
// point.
func remoteSpec(id string, p int, train int, policy string) JobSpec {
	return JobSpec{
		ID: id, Mixture: testMixture(train), Method: string(core.MethodRACA),
		P: p, Seed: 1, CheckpointEvery: 4, Policy: policy,
	}
}

// referenceHash trains the spec's fault-free local reference with the
// identical parameter build and returns its ModelHash.
func referenceHash(t *testing.T, spec JobSpec) string {
	t.Helper()
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Train(ds.X, ds.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.ModelHash(out.Set)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// startExecutors runs n in-process executor workers against the
// coordinator — the race-instrumented coverage of the executor paths.
func startExecutors(t *testing.T, c *Coordinator, n int, delay time.Duration) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Errors are expected at shutdown (revocation, coordinator
			// close); the tests assert on job outcomes instead.
			_ = RunExecutor(ctx, c.Addr(), ExecutorOptions{Fleet: true, IterDelay: delay})
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })
	waitFor(t, "executors registered", func() bool { return len(c.Workers()) >= n })
	return cancel
}

// TestRemoteJobRunsOnExecutors: a job's shard solves run inside the
// executor workers, stream back over the leases, and assemble to the exact
// hash the in-process fault-free reference produces.
func TestRemoteJobRunsOnExecutors(t *testing.T) {
	spec := remoteSpec("remote", 3, 240, "shrink")
	want := referenceHash(t, spec)

	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 3, 0)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("remote job never finished")
	}
	res := j.Result()
	if res.Err != "" {
		t.Fatalf("remote job failed: %s", res.Err)
	}
	if res.ModelHash != want {
		t.Fatalf("remote hash %s != reference %s", res.ModelHash, want)
	}
	if res.FinalP != 3 || res.Generations != 1 || res.Recoveries != 0 {
		t.Fatalf("FinalP=%d Generations=%d Recoveries=%d, want 3/1/0",
			res.FinalP, res.Generations, res.Recoveries)
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("remote accuracy %.3f", res.Accuracy)
	}
	if res.TotalSec <= 0 {
		t.Fatal("remote run carries no α–β virtual time")
	}
	if got := c.Metrics().Snapshot()["cluster_remote_generations_total"]; got != 1 {
		t.Fatalf("cluster_remote_generations_total=%v, want 1", got)
	}
	// Every rank's checkpoints were accepted from its owner: the deposits
	// that feed the straggler detector.
	if p := j.Remote(); len(p.CkptIters) != spec.P {
		t.Fatalf("checkpoints accepted for ranks %v, want all %d", p.CkptIters, spec.P)
	}
}

// TestRemoteSparseJobMatchesInProcess: CSR shards cross the rank-done frame
// as CSR — stored structure, explicit zeros and all — so a remote job over a
// sparse mixture lands on the hash of the same spec trained in-process.
func TestRemoteSparseJobMatchesInProcess(t *testing.T) {
	spec := remoteSpec("sparse", 2, 240, "shrink")
	spec.Mixture.Features, spec.Mixture.Sparse, spec.Mixture.Density = 64, true, 0.2
	want := referenceHash(t, spec)
	if _, ds, err := trainParams(spec); err != nil || !ds.X.Sparse() {
		t.Fatalf("the spec's dataset is not sparse (%v)", err)
	}

	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 2, 0)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("remote job never finished")
	}
	res := j.Result()
	if res.Err != "" || res.Generations != 1 {
		t.Fatalf("remote sparse job: %+v", res)
	}
	if res.ModelHash != want {
		t.Fatalf("remote sparse hash %s != in-process %s", res.ModelHash, want)
	}
	if res.Accuracy < 0.7 {
		t.Fatalf("remote sparse accuracy %.3f", res.Accuracy)
	}
}

// TestRemoteEveryMethod: a job of every method runs on four executors in one
// generation and lands on the hash of in-process core.Train — RA-CA as lone
// shards, the rest as one rank per executor over a tcpmpi mesh — and its
// messages, bytes, iterations and support vectors are the in-process run's
// (the tree methods' iterations summed over layers from each rank's per-layer
// counts). A mesh job's merged fleet trace holds one flow edge per message,
// and its edges' bytes sum to the job's.
func TestRemoteEveryMethod(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 4, 0)
	for _, method := range core.Methods() {
		t.Run(string(method), func(t *testing.T) {
			spec := remoteSpec(string(method), 4, 320, "shrink")
			spec.Method = string(method)
			pr, ds, err := trainParams(spec)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.Train(ds.X, ds.Y, pr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.ModelHash(ref.Set)
			if err != nil {
				t.Fatal(err)
			}
			j, err := c.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-j.Done():
			case <-time.After(120 * time.Second):
				t.Fatalf("remote job never finished (progress %+v)", j.Remote())
			}
			res := j.Result()
			if res.Err != "" || res.ModelHash != want || res.Generations != 1 || res.FinalP != 4 {
				t.Fatalf("result %+v, want hash %s in one generation at P=4", res, want)
			}
			if res.Messages != ref.Stats.CommOps || res.Bytes != ref.Stats.CommBytes {
				t.Fatalf("%d messages, %d bytes; in-process %d, %d",
					res.Messages, res.Bytes, ref.Stats.CommOps, ref.Stats.CommBytes)
			}
			if res.Iters != ref.Stats.Iters || res.SVs != ref.Stats.SVs {
				t.Fatalf("%d iterations, %d SVs; in-process %d, %d",
					res.Iters, res.SVs, ref.Stats.Iters, ref.Stats.SVs)
			}
			if res.Messages == 0 {
				// RA-CA's shard ranks send nothing and ship no trace, so
				// the job holds none.
				if _, err := j.Timeline(); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("a job whose ranks shipped no spans merged: %v", err)
				}
				return
			}
			// The merged trace accounts for exactly the job's traffic: one
			// edge per message, carrying the bytes the job counted.
			merged, err := j.Timeline()
			if err != nil {
				t.Fatal(err)
			}
			edges := merged.FlowEdges()
			var bytes int64
			for _, e := range edges {
				bytes += int64(e.Bytes)
			}
			if int64(len(edges)) != res.Messages || bytes != res.Bytes {
				t.Fatalf("merged trace: %d edges carrying %d bytes; the job counted %d messages, %d bytes",
					len(edges), bytes, res.Messages, res.Bytes)
			}
			// One host, one clock: the offsets read off the job's messages
			// are relative to rank 0 and, on loopback, within a millisecond.
			// Cascade's ranks exchange one message each way per pair, so its
			// estimate is only as good as those two transits, which a read
			// loop waiting for a core on a host running four ranks can
			// stretch past that; it is held to the same-host bound.
			bound := time.Millisecond
			if method == core.MethodCascade {
				bound = time.Second
			}
			off := merged.Extra().ClockOffsetsNs
			if len(off) != 4 || off[0] != 0 {
				t.Fatalf("clock offsets %v, want 4 with rank 0's 0", off)
			}
			for r, o := range off {
				if o < -int64(bound) || o > int64(bound) {
					t.Fatalf("rank %d: loopback offset %v, want within %v", r, time.Duration(o), bound)
				}
			}
		})
	}
}

// fakeWorker is a hand-rolled executor on a bare lease. It listens on every
// tag of the exec block — the retired 103–107 included — records what the
// coordinator sends it, and answers a start frame with core.RunShard
// results, so a test sees the coordinator's half of the protocol without
// RunExecutor's assumptions about it.
type fakeWorker struct {
	mu     sync.Mutex
	tags   []int
	starts [][]byte
}

func (w *fakeWorker) received() ([]int, [][]byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int(nil), w.tags...), append([][]byte(nil), w.starts...)
}

// startFakeWorker registers one fakeWorker. The dataset and parameters are
// passed in — resolved by the caller — so the worker never touches the
// spec's dataset itself. onStart, when non-nil, runs after a start frame is
// recorded and before the first result is sent.
func startFakeWorker(t *testing.T, c *Coordinator, pr core.Params, ds *data.Dataset, onStart func(*tcpmpi.Lease, execStart)) *fakeWorker {
	t.Helper()
	l, err := tcpmpi.Register(c.Addr(), tcpmpi.RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := &fakeWorker{}
	done := make(chan struct{})
	t.Cleanup(func() { l.Close(); <-done })
	go func() {
		defer close(done)
		for {
			tag, payload, err := l.RecvAny([]int{103, 104, 105, 106, 107, tagExecStart, tagExecCkpt, tagExecRankDone, tagExecAbort, tagExecFail}, 0)
			if err != nil {
				return // lease closed: the test is over
			}
			w.mu.Lock()
			w.tags = append(w.tags, tag)
			if tag == tagExecStart {
				w.starts = append(w.starts, payload)
			}
			w.mu.Unlock()
			if tag != tagExecStart {
				continue
			}
			m, _, err := decodeExecStart(payload)
			if err != nil {
				t.Errorf("fake worker: %v", err)
				return
			}
			if onStart != nil {
				onStart(l, m)
			}
			for _, rank := range m.Ranks {
				sh, err := core.RunShard(ds.X, ds.Y, pr, core.ShardRun{Rank: rank, P: m.Spec.P})
				if err != nil {
					t.Errorf("fake worker: rank %d: %v", rank, err)
					return
				}
				if err := l.Send(tagExecRankDone, encodeExecRankDone(execRank{
					Job: m.Job, Gen: m.Gen, Rank: rank, Iters: sh.Iters, VirtSec: sh.VirtSec,
				}, nil, sh.Model, sh.Center)); err != nil {
					return // a failed send ends the lease: the test ended under a worker still answering
				}
			}
		}
	}()
	return w
}

// TestGenerationIsOneFrame pins the RA-CA launch protocol from the worker's
// side of the wire: the only frame a worker is sent for a healthy job is
// start, the frame names no peers — the workers announce no mesh port, and
// none is waited for — and answering it with shard results is all it
// takes to finish the job on the in-process reference hash. The workers also
// speak the retired tags 103–107 mid-job (the mesh bootstrap and the JSON
// start/checkpoint/rank-done frames); the coordinator logs and ignores them
// like any unknown tag.
func TestGenerationIsOneFrame(t *testing.T) {
	spec := remoteSpec("oneframe", 2, 240, "shrink")
	want := referenceHash(t, spec)
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}

	c, logged := newLoggedCoordinator(t, Config{})

	retiredTags := []int{103, 104, 105, 106, 107}
	retired := func(l *tcpmpi.Lease, m execStart) {
		for _, tag := range retiredTags {
			frame := fmt.Sprintf(`{"job":%q,"gen":%d,"addr":"127.0.0.1:1"}`, m.Job, m.Gen)
			if err := l.Send(tag, []byte(frame)); err != nil {
				t.Errorf("retired tag %d: %v", tag, err)
			}
		}
	}
	workers := []*fakeWorker{
		startFakeWorker(t, c, pr, ds, retired),
		startFakeWorker(t, c, pr, ds, retired),
	}
	waitFor(t, "fake workers registered", func() bool { return len(c.Workers()) == 2 })

	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		tags, _ := workers[0].received()
		t.Fatalf("job never finished; worker 0 was sent tags %v (progress %+v)", tags, j.Remote())
	}
	res := j.Result()
	if res.Err != "" {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.ModelHash != want || res.Generations != 1 || res.Recoveries != 0 {
		t.Fatalf("hash %s (want %s) Generations=%d Recoveries=%d, want 1/0",
			res.ModelHash, want, res.Generations, res.Recoveries)
	}
	for i, w := range workers {
		tags, starts := w.received()
		if len(tags) != 1 || tags[0] != tagExecStart {
			t.Fatalf("worker %d was sent tags %v, want exactly one start (%d)", i, tags, tagExecStart)
		}
		secs, err := mpi.UnpackSections(starts[0], 2) // header + one rank's (empty) resume section
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(secs[0], &keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"peers", "mesh_rank", "mesh"} {
			if _, ok := keys[k]; ok {
				t.Errorf("worker %d: start frame still carries %q", i, k)
			}
		}
	}
	for _, tag := range retiredTags {
		want := fmt.Sprintf("ignoring frame tag %d", tag)
		if n := logged(want); n != 2 {
			t.Errorf("%q logged %d times, want once per worker", want, n)
		}
	}
}

// newLoggedCoordinator is a test coordinator whose log lines can be counted
// by substring: how a test sees a frame the coordinator refused. cfg gives
// any other settings; its lease TTL and logger are replaced.
func newLoggedCoordinator(t *testing.T, cfg Config) (*Coordinator, func(substr string) int) {
	t.Helper()
	var mu sync.Mutex
	var lines []string
	logf, stop := testLog(t)
	cfg.LeaseTTL = time.Second
	cfg.Logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
		logf("%s", line)
	}
	c, err := New("localhost:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stop(); c.Close() })
	return c, func(substr string) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, line := range lines {
			if strings.Contains(line, substr) {
				n++
			}
		}
		return n
	}
}

// TestRankDoneShardRejectedAtFrame: a rank-done frame is trusted no further
// than its bytes. A shard of another width than the job's dataset, with more
// support vectors than the dataset has rows, or carrying a non-finite
// multiplier, label, bias or center is refused where the frame is decoded —
// logged, never stored, the rank still pending — and the job finishes on the
// honest shard that follows, its SV count taken from the models it holds.
func TestRankDoneShardRejectedAtFrame(t *testing.T) {
	spec := remoteSpec("reject", 1, 160, "shrink")
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Train(ds.X, ds.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ModelHash(ref.Set)
	if err != nil {
		t.Fatal(err)
	}
	good, err := core.RunShard(ds.X, ds.Y, pr, core.ShardRun{Rank: 0, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	// edit returns a deep-enough copy of the honest shard for one field to
	// be spoiled in.
	edit := func(f func(m *model.Model, center []float64)) (*model.Model, []float64) {
		m := *good.Model
		m.Alpha = append([]float64(nil), m.Alpha...)
		m.SVY = append([]float64(nil), m.SVY...)
		center := append([]float64(nil), good.Center...)
		f(&m, center)
		return &m, center
	}
	ones := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	rows, features := ds.X.Rows(), ds.Features()
	type hostile struct {
		name, reason string
		m            *model.Model
		center       []float64
	}
	cases := []hostile{
		{name: "another width", reason: "features",
			m:      &model.Model{Kernel: pr.Kernel, SVX: la.Zeros(2, 100), SVY: []float64{1, -1}, Alpha: ones(2), Fallback: 1},
			center: make([]float64, 100)},
		{name: "more SVs than rows", reason: "support vectors",
			m:      &model.Model{Kernel: pr.Kernel, SVX: la.Zeros(rows+1, features), SVY: ones(rows + 1), Alpha: ones(rows + 1), Fallback: 1},
			center: make([]float64, features)},
	}
	for _, nf := range []struct {
		name  string
		spoil func(m *model.Model, center []float64)
	}{
		{"NaN alpha", func(m *model.Model, _ []float64) { m.Alpha[0] = math.NaN() }},
		{"infinite label", func(m *model.Model, _ []float64) { m.SVY[0] = math.Inf(1) }},
		{"NaN bias", func(m *model.Model, _ []float64) { m.B = math.NaN() }},
		{"infinite center", func(_ *model.Model, center []float64) { center[features-1] = math.Inf(-1) }},
	} {
		m, center := edit(nf.spoil)
		cases = append(cases, hostile{nf.name, "non-finite", m, center})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, logged := newLoggedCoordinator(t, Config{})
			startFakeWorker(t, c, pr, ds, func(l *tcpmpi.Lease, m execStart) {
				// The spoiled shard claims the rank first; the fake worker
				// sends the honest one once this returns.
				hdr := execRank{Job: m.Job, Gen: m.Gen, Rank: 0, Iters: 1}
				if err := l.Send(tagExecRankDone, encodeExecRankDone(hdr, nil, tc.m, tc.center)); err != nil {
					t.Errorf("hostile rank-done: %v", err)
					return
				}
				for deadline := time.Now().Add(10 * time.Second); logged("rank-done shard rejected") == 0; {
					if time.Now().After(deadline) {
						t.Error("the coordinator never refused the shard")
						return
					}
					time.Sleep(time.Millisecond)
				}
				if p := c.Jobs()[0].Remote(); len(p.DoneRanks) != 0 {
					t.Errorf("the refused shard finished rank(s) %v", p.DoneRanks)
				}
			})
			waitFor(t, "fake worker registered", func() bool { return len(c.Workers()) == 1 })
			j, err := c.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-j.Done():
			case <-time.After(30 * time.Second):
				t.Fatalf("job never finished (progress %+v)", j.Remote())
			}
			res := j.Result()
			if res.Err != "" || res.ModelHash != want {
				t.Fatalf("result %+v, want hash %s", res, want)
			}
			if res.SVs != ref.Set.NSV() {
				t.Errorf("SVs=%d, want the %d the model set holds", res.SVs, ref.Set.NSV())
			}
			if logged("rank-done shard rejected") != 1 || logged(tc.reason) == 0 {
				t.Errorf("want one refusal naming %q in the log", tc.reason)
			}
		})
	}
}

// TestWorkerFailFrameFailsJob: a worker-reported failure is job-level —
// shard solves are deterministic, so no re-gang is tried — and the worker's
// message reaches the client in the result.
func TestWorkerFailFrameFailsJob(t *testing.T) {
	spec := remoteSpec("failframe", 1, 160, "shrink")
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCoordinator(t, time.Second)
	startFakeWorker(t, c, pr, ds, func(l *tcpmpi.Lease, m execStart) {
		// A stale generation's report carries no authority; this one does.
		for _, gen := range []int{m.Gen + 1, m.Gen} {
			frame := marshalExec(execFail{Job: m.Job, Gen: gen, Rank: 0, Err: fmt.Sprintf("disk on fire (gen %d)", gen)})
			if err := l.Send(tagExecFail, frame); err != nil {
				t.Errorf("fail frame: %v", err)
			}
		}
	})
	waitFor(t, "fake worker registered", func() bool { return len(c.Workers()) == 1 })
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job never finished (progress %+v)", j.Remote())
	}
	res := j.Result()
	if j.State() != JobFailed || !strings.Contains(res.Err, "disk on fire (gen 1)") {
		t.Fatalf("state %v, result %+v; want a failure carrying the worker's message", j.State(), res)
	}
	if got := c.Metrics().Snapshot()["cluster_remote_generations_total"]; got != 1 {
		t.Fatalf("cluster_remote_generations_total=%v; a worker-reported failure was retried", got)
	}
}

// TestMixedLoopbackMeshRefused: a mesh gang whose peer table mixes a worker
// that joined over loopback with one on another host fails the job at
// dispatch — no start frame is sent and no port is consumed — instead of
// handing the remote member a loopback address to dial on every rerun.
func TestMixedLoopbackMeshRefused(t *testing.T) {
	for _, tc := range []struct {
		mesh []string
		ok   bool
	}{
		{[]string{"127.0.0.1:7001", "127.0.0.1:7002"}, true},
		{[]string{"192.0.2.7:7001", "192.0.2.8:7002"}, true},
		{[]string{"127.0.0.1:7001", "192.0.2.7:7002"}, false},
		{[]string{"192.0.2.7:7001", "[::1]:7002"}, false},
	} {
		if err := meshReachable(tc.mesh); (err == nil) != tc.ok {
			t.Errorf("meshReachable(%v) = %v, want ok=%v", tc.mesh, err, tc.ok)
		}
	}

	spec := remoteSpec("mixed", 2, 160, "shrink")
	spec.Method = string(core.MethodDisSMO)
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCoordinator(t, time.Second)
	fakes := []*fakeWorker{startFakeWorker(t, c, pr, ds, nil), startFakeWorker(t, c, pr, ds, nil)}
	// Admitted by the coordinator, not only leased: a port from a lease it
	// has not admitted yet is dropped.
	waitFor(t, "fake workers admitted", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.workers) == 2
	})
	// The second worker's port arrives as if its lease came from another host.
	for i, w := range c.Workers() {
		w.Addr = []string{"127.0.0.1:40000", "192.0.2.7:40000"}[i]
		if err := c.execFrame(w, tagExecPort, marshalExec(execPort{Port: 7001 + i})); err != nil {
			t.Fatal(err)
		}
	}
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job never finished (progress %+v)", j.Remote())
	}
	if res := j.Result(); j.State() != JobFailed || !strings.Contains(res.Err, "mix loopback and other hosts") {
		t.Fatalf("state %v, result %+v; want the mixed peer table refused", j.State(), res)
	}
	for i, w := range fakes {
		if tags, _ := w.received(); len(tags) != 0 {
			t.Errorf("worker %d was sent tags %v", i, tags)
		}
	}
	c.mu.Lock()
	ports := len(c.ports)
	c.mu.Unlock()
	if ports != 2 {
		t.Fatalf("%d ports on record after the refusal, want both kept", ports)
	}
}

// countMixtureResolves swaps in a counting generateMixture for the test.
func countMixtureResolves(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := generateMixture
	generateMixture = func(sp data.MixtureSpec) (*data.Dataset, error) {
		n.Add(1)
		return orig(sp)
	}
	t.Cleanup(func() { generateMixture = orig })
	return &n
}

// TestSubmitResolvesDatasetOnce: the coordinator materialises a job's
// dataset at Submit and the job runs on that copy — validation and the
// supervisor do not each build their own. Executors running in this process
// share the counted generator, so each adds its own one build; fake workers
// (handed the dataset) add none.
func TestSubmitResolvesDatasetOnce(t *testing.T) {
	t.Run("in-process", func(t *testing.T) {
		c := newTestCoordinator(t, time.Second)
		startExecutors(t, c, 2, 0)
		n := countMixtureResolves(t)
		j, err := c.Submit(JobSpec{Mixture: testMixture(160), Method: string(core.MethodRACA), P: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if res := j.Result(); res.Err != "" || res.ModelHash == "" {
			t.Fatalf("job: %+v", res)
		}
		if got := n.Load(); got != 3 {
			t.Fatalf("dataset resolved %d times for one job on two executors, want 3 (coordinator + one per executor)", got)
		}
	})
	t.Run("remote", func(t *testing.T) {
		spec := remoteSpec("once", 2, 160, "shrink")
		pr, ds, err := trainParams(spec)
		if err != nil {
			t.Fatal(err)
		}
		c := newTestCoordinator(t, time.Second)
		startFakeWorker(t, c, pr, ds, nil)
		startFakeWorker(t, c, pr, ds, nil)
		waitFor(t, "fake workers registered", func() bool { return len(c.Workers()) == 2 })
		n := countMixtureResolves(t)
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if res := j.Result(); res.Err != "" || res.ModelHash == "" {
			t.Fatalf("job: %+v", res)
		}
		if got := n.Load(); got != 1 {
			t.Fatalf("dataset resolved %d times for one job, want 1", got)
		}
	})
}

// TestDatasetMemoKey: the memo hits on the spec's dataset fields and nothing
// else. A spec differing in any field of its mixture, or in Dataset or Scale,
// builds anew; one differing only in how the data is trained does not.
func TestDatasetMemoKey(t *testing.T) {
	built := countMixtureResolves(t)
	var memo datasetMemo
	base := remoteSpec("memo", 2, 80, "shrink")
	ds, gamma, err := memo.resolve(base)
	if err != nil || built.Load() != 1 || gamma != 1.0/8 {
		t.Fatalf("first resolve: built %d, gamma %v, %v", built.Load(), gamma, err)
	}
	same := base
	same.ID, same.Seed, same.P, same.C, same.Policy, same.CheckpointEvery, same.Gamma = "other", 9, 4, 3, "respawn", 7, 0.5
	mix := *base.Mixture
	same.Mixture = &mix // an equal mixture behind another pointer
	if got, g, err := memo.resolve(same); err != nil || got != ds || g != 0.5 || built.Load() != 1 {
		t.Fatalf("a spec over the same data missed: built %d, gamma %v, %v", built.Load(), g, err)
	}

	fields := reflect.TypeOf(mix)
	for i := 0; i < fields.NumField(); i++ {
		changed := *base.Mixture
		changed.PosFrac = append([]float64(nil), changed.PosFrac...)
		switch f := reflect.ValueOf(&changed).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 4)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.25)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Slice:
			f.Index(0).SetFloat(0.75)
		default:
			t.Fatalf("MixtureSpec.%s: a %s this test cannot change", fields.Field(i).Name, f.Kind())
		}
		spec := base
		spec.Mixture = &changed
		before := built.Load()
		// A changed field may make the spec one the generator refuses
		// (Sparse without a Density); asking it is the miss.
		memo.resolve(spec)
		if built.Load() != before+1 {
			t.Errorf("a mixture differing in %s hit the memo", fields.Field(i).Name)
		}
	}

	named := JobSpec{Dataset: "toy", Scale: 0.05, Method: string(core.MethodRACA), P: 1}
	toy, _, err := memo.resolve(named)
	if err != nil || toy == ds {
		t.Fatalf("named dataset after a mixture: %v", err)
	}
	if again, _, _ := memo.resolve(named); again != toy {
		t.Error("the same named dataset missed")
	}
	named.Scale = 0.1
	if scaled, _, err := memo.resolve(named); err != nil || scaled == toy || scaled.M() == toy.M() {
		t.Errorf("a spec differing in Scale hit the memo (%v)", err)
	}
}

// TestConcurrentJobsShareDataset: jobs submitted together over one dataset
// share the coordinator's one copy of it — built once, its norm caches filled
// before anyone else sees it — and score on it at the same time, while each
// executor builds its own once; each job lands on the reference hash. The
// race matrix runs this at 1 and 4 CPUs.
func TestConcurrentJobsShareDataset(t *testing.T) {
	spec := JobSpec{ID: "shared", Mixture: testMixture(240), Method: string(core.MethodFCFSCA), P: 2, Seed: 3}
	want := referenceHash(t, spec)
	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 4, 0)
	built := countMixtureResolves(t)
	jobs := make([]*Job, 2)
	var wg sync.WaitGroup
	for i := range jobs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if jobs[i], err = c.Submit(spec); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, j := range jobs {
		<-j.Done()
		if res := j.Result(); res.Err != "" || res.ModelHash != want || res.Accuracy < 0.85 {
			t.Errorf("job %s: %+v, want hash %s", j.ID(), res, want)
		}
	}
	if got := built.Load(); got != 5 {
		t.Errorf("dataset built %d times for two concurrent jobs, want 5 (coordinator + one per executor)", got)
	}
}

// TestRemoteGenerationsExactlyOne: a healthy job is exactly one generation,
// every time. Workers open no sockets during an RA-CA job — the
// mesh listener each keeps was bound once, at registration — so a neighbour
// churning loopback ports — here a goroutine binding and releasing listeners
// as fast as it can — has nothing to collide with.
// 200 sequential jobs by default; `make soak-cluster` (CASVM_SOAK_CLUSTER=1)
// runs 4,000.
func TestRemoteGenerationsExactlyOne(t *testing.T) {
	jobs := 200
	switch {
	case os.Getenv("CASVM_SOAK_CLUSTER") == "1":
		jobs = 4000
	case testing.Short():
		jobs = 20
	}
	spec := remoteSpec("exact", 4, 160, "shrink")
	want := referenceHash(t, spec)

	c, err := New("localhost:0", Config{LeaseTTL: time.Second}) // silent: thousands of jobs
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	startExecutors(t, c, 4, 0)

	stop := make(chan struct{})
	churned := make(chan int)
	go func() {
		n := 0
		defer func() { churned <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
				ln.Close()
				n++
			}
		}
	}()

	for i := 0; i < jobs; i++ {
		spec.ID = fmt.Sprintf("exact%d", i)
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %d never finished (progress %+v)", i, j.Remote())
		}
		res := j.Result()
		if res.Err != "" {
			t.Fatalf("job %d failed: %s", i, res.Err)
		}
		if res.ModelHash != want {
			t.Fatalf("job %d hash %s != reference %s", i, res.ModelHash, want)
		}
		if res.Generations != 1 {
			t.Fatalf("job %d took %d generations, want exactly 1", i, res.Generations)
		}
	}
	close(stop)
	n := <-churned
	if got := c.Metrics().Snapshot()["cluster_remote_generations_total"]; got != float64(jobs) {
		t.Fatalf("cluster_remote_generations_total=%v over %d jobs", got, jobs)
	}
	t.Logf("%d jobs, one generation each, beside %d listener bind/release cycles", jobs, n)
}

// killGangMemberMidEpoch waits until every rank has streamed a checkpoint
// and none has finished — the run is mid-epoch — then expires the last
// generation member's lease.
func killGangMemberMidEpoch(t *testing.T, c *Coordinator, j *Job) {
	t.Helper()
	waitFor(t, "all ranks mid-epoch with checkpoints", func() bool {
		p := j.Remote()
		return len(p.Workers) > 0 && len(p.CkptIters) >= j.spec.P && len(p.DoneRanks) == 0
	})
	gang := j.Remote().Workers
	if err := c.Revoke(gang[len(gang)-1]); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteShrinkRecovery: losing an executor mid-epoch re-gangs the
// survivors from the streamed checkpoints — the dead worker's ranks resume
// on a survivor — and still lands on the fault-free hash, with the lost
// work α–β-priced.
func TestRemoteShrinkRecovery(t *testing.T) {
	spec := remoteSpec("shrink", 2, 240, "shrink")
	want := referenceHash(t, spec)

	c := newTestCoordinator(t, 500*time.Millisecond)
	startExecutors(t, c, 2, time.Millisecond)
	generated := countMixtureResolves(t)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool { return j.State() == JobRunning })
	killGangMemberMidEpoch(t, c, j)

	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("remote job never recovered")
	}
	// The coordinator and each executor built the dataset once; the
	// survivor's second generation found it where the first left it.
	if got := generated.Load(); got != 3 {
		t.Errorf("dataset generated %d times across a re-gang, want 3 (coordinator + one per executor)", got)
	}
	res := j.Result()
	if res.Err != "" {
		t.Fatalf("remote job failed: %s", res.Err)
	}
	if res.ModelHash != want {
		t.Fatalf("recovered hash %s != fault-free %s", res.ModelHash, want)
	}
	if res.Recoveries < 1 || res.Generations < 2 {
		t.Fatalf("Recoveries=%d Generations=%d, want >=1 and >=2", res.Recoveries, res.Generations)
	}
	if res.FinalP != 2 {
		t.Fatalf("FinalP=%d, want 2 (the model always carries P shards)", res.FinalP)
	}
	if len(res.LostRanks) == 0 {
		t.Fatal("recovery recorded no lost ranks")
	}
	// The re-gang is priced: the relaunch penalty alone dominates the
	// modeled compute on this dataset.
	if res.TotalSec < core.RestartPenaltySec {
		t.Fatalf("TotalSec=%.4f carries no recovery penalty (>= %.2f)", res.TotalSec, core.RestartPenaltySec)
	}
}

// TestRemoteRespawnRecovery: under the respawn policy the job waits for a
// replacement worker to backfill the gang to full width, then re-gangs —
// and the replacement generation still converges to the fault-free hash.
func TestRemoteRespawnRecovery(t *testing.T) {
	spec := remoteSpec("respawn", 2, 240, "respawn")
	want := referenceHash(t, spec)

	c := newTestCoordinator(t, 500*time.Millisecond)
	startExecutors(t, c, 2, time.Millisecond)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool { return j.State() == JobRunning })
	killGangMemberMidEpoch(t, c, j)
	waitFor(t, "gang degraded", func() bool { return len(j.Gang()) == 1 })

	// The replacement executor backfills the fixed-width gang.
	startExecutors(t, c, 1, time.Millisecond)
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("respawn job never recovered")
	}
	res := j.Result()
	if res.Err != "" {
		t.Fatalf("respawn job failed: %s", res.Err)
	}
	if res.ModelHash != want {
		t.Fatalf("respawned hash %s != fault-free %s", res.ModelHash, want)
	}
	if res.Recoveries < 1 || res.Generations < 2 {
		t.Fatalf("Recoveries=%d Generations=%d, want >=1 and >=2", res.Recoveries, res.Generations)
	}
}

// TestBeginGenerationCapsSurplusGang: a generation never gangs more
// workers than it has pending ranks. Surplus workers (respawn backfill
// after ranks finished, spares attached post-shrink) would otherwise be
// sent a start frame that assigns them nothing, which the executor's
// decoder rejects.
func TestBeginGenerationCapsSurplusGang(t *testing.T) {
	raca := remoteSpec("caps", 3, 40, "shrink")
	j := testJob(t, raca)
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	j.doneRank[0] = &core.ShardResult{}
	j.doneRank[2] = &core.ShardResult{}

	_, gang, assign, pending := j.beginGeneration([]int{7, 8, 9})
	if len(pending) != 1 || pending[0] != 1 {
		t.Fatalf("pending = %v, want [1]", pending)
	}
	if len(gang) != 1 || gang[0] != 7 {
		t.Fatalf("generation gang = %v, want [7] (capped at pending ranks)", gang)
	}
	if len(assign) != 1 || len(assign[7]) != 1 || assign[7][0] != 1 {
		t.Fatalf("assignment = %v, want worker 7 -> [1]", assign)
	}
	j.endGeneration()

	// At full width nothing is truncated: one rank per worker.
	j2 := testJob(t, raca)
	_, gang2, assign2, _ := j2.beginGeneration([]int{4, 5, 6})
	if len(gang2) != 3 || len(assign2) != 3 {
		t.Fatalf("full-width generation truncated: gang %v assign %v", gang2, assign2)
	}
}

// testJob is a job of spec on a coordinator that serves nothing, for tests
// that drive a job's generation bookkeeping directly, holding c.mu as the
// coordinator does.
func testJob(t *testing.T, spec JobSpec) *Job {
	t.Helper()
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	return newJob(new(Coordinator), "test", spec, pr, ds)
}

// pollOnly is a core.FaultInjector that only interrupts: f is polled every
// solver iteration, the way an executor's genPoll is.
type pollOnly func() error

func (pollOnly) Intercept(int, int, int, []byte) mpi.Verdict { return mpi.Verdict{} }
func (f pollOnly) CrashCheck(int, int) error                 { return f() }

// TestRemoteSurplusBackfillRecovers: respawn backfill after a rank already
// finished hands the next generation more workers than pending ranks. The
// generation must run on the truncated gang and land on the fault-free
// hash at the cost of the one recovery.
func TestRemoteSurplusBackfillRecovers(t *testing.T) {
	spec := remoteSpec("surplus", 2, 240, "respawn")
	want := referenceHash(t, spec)
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}

	c := newTestCoordinator(t, 500*time.Millisecond)
	// Rank 0 runs at once. Rank 1 streams one checkpoint in the first
	// generation and then waits to be revoked, so revoking its worker leaves
	// exactly one pending rank for a full-width replacement gang; in the next
	// generation it finishes only once the test has seen that gang.
	backfilled := make(chan struct{})
	errHeld := errors.New("held mid-epoch")
	holdRank1 := func(l *tcpmpi.Lease, m execStart) {
		if m.Ranks[0] != 1 {
			return
		}
		if m.Gen > 1 {
			select {
			case <-backfilled:
			case <-leaseEnded(l):
			}
			return
		}
		streamed := false
		held := pr
		held.Faults = pollOnly(func() error {
			if streamed {
				return errHeld
			}
			return nil
		})
		_, err := core.RunShard(ds.X, ds.Y, held, core.ShardRun{
			Rank: 1, P: m.Spec.P, CheckpointEvery: m.CheckpointEvery,
			CheckpointSink: func(ck *smo.Checkpoint) {
				hdr := execRank{Job: m.Job, Gen: m.Gen, Rank: 1, Iters: ck.Iters}
				if err := l.Send(tagExecCkpt, encodeExecCkpt(hdr, ck.Encode())); err != nil {
					t.Errorf("checkpoint: %v", err)
				}
				streamed = true
			},
		})
		if !errors.Is(err, errHeld) {
			t.Errorf("rank 1 was not held mid-epoch: %v", err)
		}
		<-leaseEnded(l)
	}
	startFakeWorker(t, c, pr, ds, holdRank1)
	startFakeWorker(t, c, pr, ds, holdRank1)
	waitFor(t, "both executors registered", func() bool { return len(c.Workers()) == 2 })

	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rank 0 done, rank 1 mid-epoch with a checkpoint", func() bool {
		p := j.Remote()
		return len(p.DoneRanks) == 1 && p.DoneRanks[0] == 0 && p.CkptIters[1] > 0
	})
	gang := j.Remote().Workers
	if err := c.Revoke(gang[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gang degraded", func() bool { return len(j.Gang()) == 1 })

	// The replacement restores full width: 2 workers, 1 pending rank.
	startFakeWorker(t, c, pr, ds, holdRank1)
	waitFor(t, "gang backfilled", func() bool { return len(j.Gang()) == 2 })
	close(backfilled)

	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("surplus-gang job never finished (progress %+v)", j.Remote())
	}
	res := j.Result()
	if res.Err != "" {
		t.Fatalf("surplus-gang job failed: %s", res.Err)
	}
	if res.ModelHash != want {
		t.Fatalf("surplus-gang hash %s != fault-free %s", res.ModelHash, want)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries=%d, want 1 (the revocation only)", res.Recoveries)
	}
}

// TestRemoteSpecValidation: running on executors has hard prerequisites — a
// live recovery policy, and enough samples to feed every rank — whatever the
// method.
func TestRemoteSpecValidation(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	for name, spec := range map[string]JobSpec{
		"recovery off":    {Mixture: testMixture(160), Method: string(core.MethodDisSMO), P: 2, Policy: "off"},
		"too few samples": {Mixture: testMixture(160), Method: string(core.MethodRACA), P: 4096},
	} {
		if _, err := c.Submit(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSubmitWithRetry: a coordinator that comes up after the first submit
// attempts — a restart mid-submit — must not fail the thin client.
func TestSubmitWithRetry(t *testing.T) {
	// Reserve an address the late coordinator will bind.
	probe, err := tcpmpi.NewRegistrar("localhost:0", tcpmpi.RegistrarConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	var mu sync.Mutex
	var coord *Coordinator
	go func() {
		time.Sleep(400 * time.Millisecond)
		c, err := New(addr, Config{LeaseTTL: time.Second, Logf: t.Logf})
		if err != nil {
			t.Logf("late coordinator: %v", err)
			return
		}
		mu.Lock()
		coord = c
		mu.Unlock()
		startExecutors(t, c, 1, 0)
	}()
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		if coord != nil {
			coord.Close()
		}
	})

	spec := JobSpec{ID: "retry", Mixture: testMixture(160), Method: string(core.MethodRACA), P: 1, Seed: 7}
	res, err := SubmitWithRetry(addr, spec, 120*time.Second, t.Logf)
	if err != nil {
		t.Fatalf("SubmitWithRetry: %v", err)
	}
	if res.ModelHash == "" || res.Err != "" {
		t.Fatalf("retry result %+v", res)
	}

	// A job-level failure is NOT retried: the coordinator answered, and a
	// resubmission would double the work.
	if _, err := SubmitWithRetry(addr, JobSpec{Method: "nope", P: 1, Dataset: "toy"},
		30*time.Second, nil); err == nil {
		t.Fatal("bogus method accepted")
	} else if strings.Contains(err.Error(), "after 5 attempts") {
		t.Fatalf("job-level failure was retried: %v", err)
	}
}

// TestRemoteExecutorHelper is the re-exec entry point for the real-process
// tests: when CASVM_REMOTE_WORKER names a coordinator, this "test" is a
// worker process serving remote executions until its lease ends (or it is
// killed -9, which is the point).
func TestRemoteExecutorHelper(t *testing.T) {
	addr := os.Getenv("CASVM_REMOTE_WORKER")
	if addr == "" {
		t.Skip("re-exec helper for the kill -9 golden tests")
	}
	delay, _ := time.ParseDuration(os.Getenv("CASVM_EXEC_DELAY"))
	err := RunExecutor(context.Background(), addr, ExecutorOptions{Fleet: true, IterDelay: delay})
	t.Logf("executor lease ended: %v", err)
}

// spawnWorkerProcess forks this test binary as a real executor worker
// process registered with the coordinator.
func spawnWorkerProcess(t *testing.T, addr string, delay time.Duration) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestRemoteExecutorHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CASVM_REMOTE_WORKER="+addr,
		"CASVM_EXEC_DELAY="+delay.String(),
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		cmd.Wait()
	})
	return cmd
}

// TestRemoteKillGolden is the acceptance scenario for real rank executors:
// a remote job runs on real worker processes, one dies mid-solve, and both
// recovery policies re-gang to the fault-free ModelHash — RA-CA from the
// streamed checkpoints, Dis-SMO by rerunning its mesh generation from zero
// (onto the survivor under shrink, at full width under respawn). The kill
// lands two ways — SIGKILL breaks the lease connection (a leave-on-break),
// SIGSTOP leaves it open but silent, so only the TTL failure detector can
// notice (a true lease expiry) — and both must drive the same recovery. Runs
// under -race via the race matrix.
func TestRemoteKillGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real worker processes")
	}
	cases := []struct {
		name, policy string
		method       core.Method
		stall        bool // SIGSTOP instead of SIGKILL
	}{
		{"shrink", "shrink", core.MethodRACA, false},
		{"respawn", "respawn", core.MethodRACA, false},
		{"shrink-stall", "shrink", core.MethodRACA, true},
		{"dissmo-shrink", "shrink", core.MethodDisSMO, false},
		{"dissmo-respawn", "respawn", core.MethodDisSMO, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec := remoteSpec("kill-"+tc.name, 2, 240, tc.policy)
			spec.Method = string(tc.method)
			want := referenceHash(t, spec)

			c := newTestCoordinator(t, 500*time.Millisecond)
			spawnWorkerProcess(t, c.Addr(), 5*time.Millisecond)
			victim := spawnWorkerProcess(t, c.Addr(), 5*time.Millisecond)
			waitFor(t, "worker processes registered", func() bool { return len(c.Workers()) == 2 })

			j, err := c.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.method == core.MethodRACA {
				waitFor(t, "all ranks mid-epoch with checkpoints", func() bool {
					p := j.Remote()
					return len(p.CkptIters) >= 2 && len(p.DoneRanks) == 0
				})
			} else {
				// A mesh streams no checkpoints: let it iterate, at 5ms an
				// iteration, well short of the hundreds it needs.
				waitFor(t, "the mesh generation dispatched", func() bool { return len(j.Remote().Workers) == 2 })
				time.Sleep(300 * time.Millisecond)
				if p := j.Remote(); len(p.DoneRanks) != 0 {
					t.Fatalf("ranks %v finished before the kill", p.DoneRanks)
				}
			}
			if tc.stall {
				// The process freezes with its connection open: only the
				// TTL failure detector can declare it dead.
				if err := victim.Process.Signal(syscall.SIGSTOP); err != nil {
					t.Fatal(err)
				}
			} else {
				// SIGKILL: no cleanup, no goodbye — the OS tears the
				// lease connection down with the process.
				if err := victim.Process.Kill(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.policy == "respawn" {
				// Respawn holds the gang at full width; a replacement
				// process must backfill before the next generation.
				waitFor(t, "gang degraded", func() bool { return len(j.Gang()) == 1 })
				spawnWorkerProcess(t, c.Addr(), 5*time.Millisecond)
			}

			select {
			case <-j.Done():
			case <-time.After(180 * time.Second):
				t.Fatalf("job never recovered from worker death (progress %+v)", j.Remote())
			}
			res := j.Result()
			if res.Err != "" {
				t.Fatalf("job failed after worker death: %s", res.Err)
			}
			if res.ModelHash != want {
				t.Fatalf("post-kill hash %s != fault-free %s", res.ModelHash, want)
			}
			if res.Recoveries < 1 || res.Generations < 2 {
				t.Fatalf("Recoveries=%d Generations=%d, want >=1 and >=2",
					res.Recoveries, res.Generations)
			}
			snap := c.Metrics().Snapshot()
			if tc.stall {
				if snap["cluster_lease_expiries_total"] < 1 {
					t.Fatalf("cluster_lease_expiries_total=%v; the stall never expired the lease",
						snap["cluster_lease_expiries_total"])
				}
			} else if snap["cluster_lease_expiries_total"]+snap["cluster_worker_leaves_total"] < 1 {
				t.Fatal("the kill never surfaced in the membership ledger")
			}
			t.Logf("%s: worker death recovered over %d generations (recoveries=%d lost=%v virt=%.4fs) to %s",
				tc.name, res.Generations, res.Recoveries, res.LostRanks, res.TotalSec, res.ModelHash[:12])
		})
	}
}
