package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"casvm/internal/core"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/tcpmpi"
	"casvm/internal/trace"
)

// spansSection is the timeline section a rank of a p-rank mesh ships: one
// span named name, and the message it received from the next rank, whose
// receive is stamped early by early (a clock the merge must repair).
func spansSection(t *testing.T, rank, p int, name string, early time.Duration) []byte {
	t.Helper()
	tl := trace.NewTimeline(p)
	now := time.Now().UnixNano()
	tl.Rank(rank).AddEvent(trace.Event{Name: name, Cat: trace.CatSolver, WallStartNs: now, WallDurNs: int64(time.Millisecond)})
	tl.Rank(rank).RecordFlow(trace.FlowEdge{
		ID: int64(rank+1) << 40, Src: (rank + 1) % p, Dst: rank, Bytes: 8,
		SendWallNs: now, RecvWallNs: now + int64(time.Millisecond) - int64(early),
	})
	b, err := encodeExecSpans(tl)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mergedNames returns the span names of the job's merged trace and its width.
func mergedNames(t *testing.T, j *Job) (map[string]int, int) {
	t.Helper()
	tl, err := j.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, e := range tl.Events() {
		names[e.Name]++
	}
	return names, tl.Extra().P
}

// TestFleetFramesOverCoordinator: a rank's telemetry is honoured under the
// exec frames' trust rule and no other. The retired fleet frames (tags
// 120–124), from a client lease or a worker lease alike, are logged as
// ignored; checkpoint and rank-done frames that carry epoch seconds and spans
// for a job their lease does not own change nothing — not the job's trace,
// not the straggler feed, not the coordinator's registry, not the job's. The owners' spans merge at the
// job's width, and the owners' one slow epoch raises exactly one straggler
// verdict, counted in both registries. The OnJobDone hook, which
// casvm-cluster writes its merged trace from, hands over the finished job.
func TestFleetFramesOverCoordinator(t *testing.T) {
	spec := remoteSpec("fleet", 3, 240, "shrink")
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	doneJobs := make(chan *Job, 1)
	c, logged := newLoggedCoordinator(t, Config{OnJobDone: func(j *Job) { doneJobs <- j }})

	// Each owner reports its rank once released: a checkpoint ending epoch 0
	// (rank 2's five times the others'), then its shard with a timeline. The
	// fake worker's own rank-done after it is a duplicate, ignored.
	release := make(chan struct{})
	report := func(l *tcpmpi.Lease, m execStart) {
		<-release
		for _, rank := range m.Ranks {
			sec := 0.1
			if rank == 2 {
				sec = 0.5
			}
			h := execRank{Job: m.Job, Gen: m.Gen, Rank: rank, Iters: m.CheckpointEvery, EpochSec: sec}
			if err := l.Send(tagExecCkpt, encodeExecCkpt(h, fuzzCheckpointBlob(m.CheckpointEvery))); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
			sh, err := core.RunShard(ds.X, ds.Y, pr, core.ShardRun{Rank: rank, P: m.Spec.P})
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			h = execRank{Job: m.Job, Gen: m.Gen, Rank: rank, Iters: sh.Iters}
			if err := l.Send(tagExecRankDone, encodeExecRankDone(h, spansSection(t, rank, m.Spec.P, "owner", 0), sh.Model, sh.Center)); err != nil {
				t.Errorf("rank-done: %v", err)
			}
		}
	}
	owners := []*fakeWorker{
		startFakeWorker(t, c, pr, ds, report),
		startFakeWorker(t, c, pr, ds, report),
		startFakeWorker(t, c, pr, ds, report),
	}
	// Cleanups run last-in first-out: a failed test releases the owners
	// before their leases close and their goroutines are awaited.
	releaseOwners := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOwners)
	waitFor(t, "owners registered", func() bool { return len(c.Workers()) == 3 })
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the generation dispatched", func() bool {
		for _, w := range owners {
			if tags, _ := w.received(); len(tags) == 0 {
				return false
			}
		}
		return true
	})

	// Two strangers: a client lease, and a worker that joined after the gang
	// formed and so holds no part of the job.
	var strangers []*tcpmpi.Lease
	for _, client := range []bool{true, false} {
		l, err := tcpmpi.Register(c.Addr(), tcpmpi.RegisterOptions{Client: client})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		strangers = append(strangers, l)
	}
	waitFor(t, "the stranger worker admitted", func() bool {
		snap := c.Metrics().Snapshot()
		return snap["cluster_worker_joins_total"] == 4 && snap["cluster_workers"] == 4
	})
	before := []map[string]float64{c.Metrics().Snapshot(), j.Metrics().Snapshot()}
	const marker = 199 // an unknown tag: once it is logged, everything before it was handled
	for _, l := range strangers {
		for tag := 120; tag <= 124; tag++ {
			payload := fmt.Sprintf(`{"job":%q,"rank":0,"p":3,"epoch":0,"sec":9,"values":{"casvm_iterations_total":1}}`, j.ID())
			if err := l.Send(tag, []byte(payload)); err != nil {
				t.Fatal(err)
			}
		}
		ck := execRank{Job: j.ID(), Gen: 1, Rank: 0, Iters: spec.CheckpointEvery, EpochSec: 9}
		if err := l.Send(tagExecCkpt, encodeExecCkpt(ck, fuzzCheckpointBlob(spec.CheckpointEvery))); err != nil {
			t.Fatal(err)
		}
		done := execRank{Job: j.ID(), Gen: 1, Rank: 1, Iters: 1}
		if err := l.Send(tagExecRankDone, encodeExecRankDone(done, spansSection(t, 1, 3, "stranger", 0), nil, nil)); err != nil {
			t.Fatal(err)
		}
		if err := l.Send(marker, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the strangers' frames handled", func() bool {
		return logged(fmt.Sprintf("ignoring frame tag %d", marker)) == len(strangers)
	})
	for tag := 120; tag <= 124; tag++ {
		if n := logged(fmt.Sprintf("ignoring frame tag %d from lease", tag)); n != len(strangers) {
			t.Errorf("retired tag %d logged as ignored %d times, want once per stranger", tag, n)
		}
	}
	if _, err := j.Timeline(); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("strangers left the job a trace: %v", err)
	}
	if ev, _ := c.Stragglers().Since(0); len(ev) != 0 {
		t.Fatalf("strangers raised verdicts %+v", ev)
	}
	if p := j.Remote(); len(p.CkptIters) != 0 || len(p.DoneRanks) != 0 {
		t.Fatalf("strangers moved the job: %+v", p)
	}
	if after := []map[string]float64{c.Metrics().Snapshot(), j.Metrics().Snapshot()}; !reflect.DeepEqual(before, after) {
		t.Fatalf("strangers moved the registries:\n%v\n%v", before, after)
	}

	releaseOwners()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job never finished (progress %+v)", j.Remote())
	}
	if res := j.Result(); res.Err != "" {
		t.Fatalf("job failed: %s", res.Err)
	}
	select {
	case dj := <-doneJobs:
		if dj != j {
			t.Fatalf("OnJobDone delivered %v, want %v", dj.ID(), j.ID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnJobDone never fired")
	}
	ev, _ := c.Stragglers().Since(0)
	if len(ev) != 1 || ev[0].Job != j.ID() || ev[0].Rank != 2 || ev[0].Epoch != 0 {
		t.Fatalf("straggler verdicts %+v, want rank 2 of epoch 0", ev)
	}
	for name, reg := range map[string]*trace.Registry{"coordinator": c.Metrics(), "job": j.Metrics()} {
		if got := reg.Snapshot()["cluster_straggler_detections_total"]; got != 1 {
			t.Errorf("%s registry counts %v straggler verdicts, want 1", name, got)
		}
	}
	// Rank 2's 0.5 s against the 0.1 s median.
	if f := c.Metrics().Snapshot()["cluster_straggler_last_factor"]; f < 4.9 || f > 5.1 {
		t.Errorf("cluster_straggler_last_factor %v, want ~5", f)
	}
	names, p := mergedNames(t, j)
	if p != spec.P || names["owner"] != spec.P || names["stranger"] != 0 {
		t.Fatalf("merged trace of width %d with spans %v, want %d owner spans", p, names, spec.P)
	}
}

// meshWorker is a hand-rolled mesh executor on a bare lease: it announces a
// port, hands every start frame to onStart, and announces a fresh port
// afterwards, as RunExecutor does when a mesh rank ends. Nobody dials the
// ports: onStart reports the rank, or does not.
func meshWorker(t *testing.T, c *Coordinator, onStart func(*tcpmpi.Lease, execStart)) {
	t.Helper()
	l, err := tcpmpi.Register(c.Addr(), tcpmpi.RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	port := 20000
	announce := func() error {
		port++
		return l.Send(tagExecPort, marshalExec(execPort{Port: port}))
	}
	if err := announce(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { l.Close(); <-done })
	go func() {
		defer close(done)
		for {
			tag, payload, err := l.RecvAny([]int{tagExecStart, tagExecAbort}, 0)
			if err != nil {
				return
			}
			if tag != tagExecStart {
				continue
			}
			m, _, err := decodeExecStart(payload)
			if err != nil {
				t.Errorf("mesh worker: %v", err)
				return
			}
			onStart(l, m)
			if announce() != nil {
				return
			}
		}
	}()
}

// TestMergedTraceOneGeneration: a mesh job's merged trace holds the
// committing generation's spans only, at that generation's width — after a
// re-gang at the same width that followed a rank's report, and after a shrink
// from four ranks to three that left a reported rank of the first generation
// outside the second.
func TestMergedTraceOneGeneration(t *testing.T) {
	for _, tc := range []struct {
		name  string
		width int // of the committing generation
	}{{"regang", 4}, {"shrink", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := JobSpec{ID: tc.name, Mixture: testMixture(160), Method: string(core.MethodDisSMO), P: 4, Seed: 1, Policy: "shrink"}
			pr, ds, err := trainParams(spec)
			if err != nil {
				t.Fatal(err)
			}
			c := newTestCoordinator(t, time.Second)
			job := func() *Job { return c.Jobs()[0] }
			// await polls from a worker's goroutine, where a test may not stop.
			await := func(what string, cond func() bool) {
				for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Errorf("timed out waiting for %s", what)
						return
					}
				}
			}
			reported := func() bool {
				done := job().Remote().DoneRanks
				return len(done) == 1 && done[0] == 3
			}
			// Generation 1: rank 3 reports, then the generation is lost — to a
			// rank that ends unreported (a fresh port, as after a mesh
			// failure), or to rank 2's worker leaving. Generation 2 reports
			// every rank.
			onStart := func(l *tcpmpi.Lease, m execStart) {
				rank := m.Ranks[0]
				if m.Gen == 1 && rank != 3 {
					await("rank 3 reported", reported)
					switch {
					case tc.name == "shrink" && rank == 2:
						l.Close()
					case tc.name == "shrink":
						await("the gang shrunk", func() bool { return len(job().Gang()) == 3 })
					}
					return
				}
				var sh *model.Model
				var center []float64
				if rank == 0 {
					sh = model.FromSolution(la.Zeros(1, ds.Features()), []float64{1}, []float64{0.5}, 0, pr.Kernel)
					center = make([]float64, ds.Features())
				}
				h := execRank{Job: m.Job, Gen: m.Gen, Rank: rank, Iters: 1}
				name := fmt.Sprintf("gen%d", m.Gen)
				if err := l.Send(tagExecRankDone, encodeExecRankDone(h, spansSection(t, rank, m.Spec.P, name, 0), sh, center)); err != nil {
					t.Errorf("rank-done: %v", err)
				}
			}
			for i := 0; i < 4; i++ {
				meshWorker(t, c, onStart)
			}
			waitFor(t, "mesh workers registered", func() bool { return len(c.Workers()) == 4 })
			j, err := c.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-j.Done():
			case <-time.After(60 * time.Second):
				t.Fatalf("job never finished (progress %+v)", j.Remote())
			}
			res := j.Result()
			if res.Err != "" || res.Generations != 2 || res.FinalP != tc.width {
				t.Fatalf("result %+v, want 2 generations finishing at P=%d", res, tc.width)
			}
			names, p := mergedNames(t, j)
			if p != tc.width || names["gen2"] != tc.width || len(names) != 1 {
				t.Fatalf("merged trace of width %d with spans %v, want %d gen2 spans and nothing else", p, names, tc.width)
			}
			if x, err := j.Timeline(); err != nil {
				t.Fatal(err)
			} else if edges := x.Extra().Edges; len(edges) != tc.width {
				t.Fatalf("%d merged edges, want one per rank of the committing generation", len(edges))
			}
		})
	}
}

// TestResumedRankEpochIndex: the coordinator numbers a rank's epochs from the
// cadence it dispatched, so a rank resumed in a later generation goes on
// where it stopped — its first deposit after resuming from iteration 128 at
// cadence 64 ends epoch 2, not the gang's epoch 0 — and a deposit that does
// not advance the rank's iteration count (a stale generation's, or a Final
// one at the count of the last) ends no epoch.
func TestResumedRankEpochIndex(t *testing.T) {
	spec := remoteSpec("epochs", 2, 40, "shrink")
	spec.CheckpointEvery = 64
	j := testJob(t, spec)
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	for _, d := range []struct {
		gen, rank, iters int
		epoch            int
		ended            bool
	}{
		{1, 1, 64, 0, true},
		{1, 1, 128, 1, true},
		{1, 0, 10, 0, true}, // a Final deposit before the first cadence
		// Generation 2 resumes rank 1 from its checkpoint at 128.
		{1, 1, 128, 1, false}, // generation 1's late duplicate
		{2, 1, 192, 2, true},
		{2, 1, 192, 2, false}, // the Final deposit at the same count
		{2, 1, 200, 3, true},  // a Final deposit past it ends a short epoch
		{1, 1, 130, 0, false}, // a stale deposit behind the resume point
	} {
		epoch, ended := j.onCkpt(execRank{Gen: d.gen, Rank: d.rank, Iters: d.iters}, nil)
		if ended != d.ended || (ended && epoch != d.epoch) {
			t.Errorf("gen %d rank %d deposit at %d: epoch %d ended=%v, want %d ended=%v",
				d.gen, d.rank, d.iters, epoch, ended, d.epoch, d.ended)
		}
	}
}

// TestFleetStateBoundedAcrossJobs: a coordinator keeps fleet telemetry for
// the most recent fleetKeepJobs finished jobs and drops the oldest's as new
// ones finish — every job (a one-rank Dis-SMO mesh) ships its timeline, the
// newest job's trace still merges, the oldest job's is refused like that of
// a job that shipped none.
func TestFleetStateBoundedAcrossJobs(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 1, 0)

	const extra = 5
	var jobs []*Job
	for i := 0; i < fleetKeepJobs+extra; i++ {
		j, err := c.Submit(JobSpec{Mixture: testMixture(40), Method: string(core.MethodDisSMO), P: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if res := j.Result(); res.Err != "" {
			t.Fatalf("job %d: %s", i, res.Err)
		}
		if !hasTrace(j) {
			t.Fatalf("job %s left no trace", j.ID())
		}
		jobs = append(jobs, j)
	}
	held := 0
	for _, j := range jobs {
		if hasTrace(j) {
			held++
		}
	}
	if held != fleetKeepJobs {
		t.Fatalf("%d jobs hold a trace, want %d", held, fleetKeepJobs)
	}
	if hasTrace(jobs[extra-1]) || !hasTrace(jobs[extra]) {
		t.Fatalf("want %q dropped and %q kept", jobs[extra-1].ID(), jobs[extra].ID())
	}
	if _, err := jobs[0].Timeline(); !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "holds no trace") {
		t.Fatalf("dropped job's trace: %v, want the no-trace error", err)
	}
	if _, err := jobs[len(jobs)-1].Timeline(); err != nil {
		t.Fatalf("newest job's trace: %v", err)
	}
}

// hasTrace reports whether the job holds shipped spans, without merging.
func hasTrace(j *Job) bool {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	return len(j.spans) > 0
}

// TestConcurrentTracesShareWorkers: two mesh jobs run one after the other on
// the same two executors, the second's trace read while its ranks report,
// and then both traces are written at once, and both carry every rank's
// same-host offset, read off the job's own messages.
func TestConcurrentTracesShareWorkers(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 2, 0)
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := c.Submit(JobSpec{Mixture: testMixture(80), Method: string(core.MethodDisSMO), P: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for running := true; running; {
			select {
			case <-j.Done():
				running = false
			case <-time.After(time.Millisecond):
				if _, err := j.Timeline(); err != nil && !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("job %d: trace read mid-run: %v", i, err)
				}
			}
		}
		if res := j.Result(); res.Err != "" {
			t.Fatalf("job %d: %s", i, res.Err)
		}
		jobs = append(jobs, j)
	}
	traces := make([]bytes.Buffer, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = j.WriteTrace(&traces[i])
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %s: %v", j.ID(), errs[i])
		}
		x, err := trace.ReadTraceExtra(&traces[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(x.ClockOffsetsNs) != 2 {
			t.Fatalf("job %s: offsets %v, want one per rank", j.ID(), x.ClockOffsetsNs)
		}
		for r, off := range x.ClockOffsetsNs {
			if off < -int64(time.Second) || off > int64(time.Second) {
				t.Fatalf("job %s rank %d: same-host offset %v", j.ID(), r, time.Duration(off))
			}
		}
	}
}

// TestMovedRankMergedFromLastReport: a rank reported by one worker and,
// after a re-gang, by another merges from its last report. Under respawn,
// rank 1 reports from worker B, B leaves, a fresh worker C takes its place,
// and the second generation runs rank 1 on C: the trace holds the second
// generation's spans only, and the coordinator logs that the lost mesh
// generation reruns from zero, not from checkpoints.
func TestMovedRankMergedFromLastReport(t *testing.T) {
	spec := JobSpec{ID: "moved", Mixture: testMixture(80), Method: string(core.MethodDisSMO), P: 2, Seed: 1, Policy: "respawn"}
	pr, ds, err := trainParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, logged := newLoggedCoordinator(t, Config{})
	var mu sync.Mutex
	reporter := map[[2]int]int{} // (generation, rank) -> reporting worker
	bGone := func() bool {
		mu.Lock()
		b, reported := reporter[[2]int{1, 1}]
		mu.Unlock()
		if !reported {
			return false
		}
		for _, w := range c.Workers() {
			if w.ID == b {
				return false
			}
		}
		return true
	}
	onStart := func(l *tcpmpi.Lease, m execStart) {
		rank := m.Ranks[0]
		if m.Gen == 1 && rank == 0 {
			// Hold rank 0 unreported until rank 1's worker has left.
			for deadline := time.Now().Add(10 * time.Second); !bGone(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("rank 1's worker never left")
					return
				}
			}
			return
		}
		var sh *model.Model
		var center []float64
		if rank == 0 {
			sh = model.FromSolution(la.Zeros(1, ds.Features()), []float64{1}, []float64{0.5}, 0, pr.Kernel)
			center = make([]float64, ds.Features())
		}
		mu.Lock()
		reporter[[2]int{m.Gen, rank}] = l.ID()
		mu.Unlock()
		var early time.Duration
		if m.Gen == 2 && rank == 1 {
			early = time.Second // its receive lands before the send: a repair, then a clamp
		}
		h := execRank{Job: m.Job, Gen: m.Gen, Rank: rank, Iters: 1}
		if err := l.Send(tagExecRankDone, encodeExecRankDone(h, spansSection(t, rank, m.Spec.P, fmt.Sprintf("gen%d", m.Gen), early), sh, center)); err != nil {
			t.Errorf("rank-done: %v", err)
		}
		if m.Gen == 1 {
			l.Close() // worker B leaves once its rank has reported
		}
	}
	meshWorker(t, c, onStart)
	waitFor(t, "worker A registered", func() bool { return len(c.Workers()) == 1 })
	meshWorker(t, c, onStart)
	waitFor(t, "worker B registered", func() bool { return len(c.Workers()) == 2 })
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rank 1 reported and its worker gone", bGone)
	meshWorker(t, c, onStart) // worker C
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job never finished (progress %+v)", j.Remote())
	}
	if res := j.Result(); res.Err != "" || res.Generations != 2 || res.FinalP != 2 {
		t.Fatalf("result %+v, want 2 generations finishing at P=2", res)
	}
	mu.Lock()
	b := reporter[[2]int{1, 1}]
	moved, ok := reporter[[2]int{2, 1}]
	mu.Unlock()
	if !ok || moved == b {
		t.Fatalf("rank 1 reported by worker %d, then %d: the re-gang did not move it", b, moved)
	}
	if n := logged("aborted (worker lost); re-ganging to rerun the generation from zero"); n != 1 {
		t.Fatalf("%d mesh re-gang lines logged, want 1", n)
	}
	if n := logged("checkpoints"); n != 0 {
		t.Fatalf("%d log lines name checkpoints for a mesh job, which has none", n)
	}
	names, p := mergedNames(t, j)
	if p != 2 || names["gen2"] != 2 || len(names) != 1 {
		t.Fatalf("merged trace of width %d with spans %v, want 2 gen2 spans", p, names)
	}
	snap := c.Metrics().Snapshot()
	// Three timelines were accepted, each of one span and one edge; the
	// second generation's crossed edges violate causality both ways.
	if snap["cluster_fleet_events_total"] != 3 || snap["cluster_fleet_edges_total"] != 3 {
		t.Fatalf("ingested %v events and %v edges, want 3 and 3", snap["cluster_fleet_events_total"], snap["cluster_fleet_edges_total"])
	}
	if snap["cluster_fleet_offset_repairs_total"] < 1 || snap["cluster_fleet_clamped_edges_total"] < 1 {
		t.Fatalf("%v offset repairs and %v clamps, want both counted",
			snap["cluster_fleet_offset_repairs_total"], snap["cluster_fleet_clamped_edges_total"])
	}
}

// TestTraceWrittenTwiceIsIdentical: a merged trace is a function of what the
// ranks shipped, so one Dis-SMO job's trace written twice is the same file
// byte for byte.
func TestTraceWrittenTwiceIsIdentical(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 2, 0)
	j, err := c.Submit(JobSpec{Mixture: testMixture(80), Method: string(core.MethodDisSMO), P: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if res := j.Result(); res.Err != "" {
		t.Fatal(res.Err)
	}
	var first, second bytes.Buffer
	if err := j.WriteTrace(&first); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteTrace(&second); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two writes of one job's trace differ (%d and %d bytes)", first.Len(), second.Len())
	}
}
