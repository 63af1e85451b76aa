package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"casvm/internal/core"
	"casvm/internal/tcpmpi"
	"casvm/internal/telemetry/fleet"
	"casvm/internal/trace"
)

// TestFleetFramesOverCoordinator is the wiring test for the fleet plane on
// the real cluster coordinator: a lease ships hello, spans, metrics and
// epoch reports over the same connection an executor's job control rides,
// and the coordinator routes them to its collector — including federation
// into a finished job's /jobs/<id>/metrics registry and the OnJobDone hook
// casvm-cluster persists merged traces from.
func TestFleetFramesOverCoordinator(t *testing.T) {
	doneJobs := make(chan *Job, 4)
	c, err := New("localhost:0", Config{
		LeaseTTL:  time.Second,
		Logf:      t.Logf,
		OnJobDone: func(j *Job) { doneJobs <- j },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// A real job, so the federated fleet_* gauges land in the registry
	// the telemetry server serves under /jobs/<id>/metrics.
	spec := JobSpec{ID: "fleet", Mixture: testMixture(160), Method: string(core.MethodRACA), P: 1, Seed: 1}
	startExecutors(t, c, 1, 0)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case dj := <-doneJobs:
		if dj != j {
			t.Fatalf("OnJobDone delivered %v, want %v", dj.ID(), j.ID())
		}
	case <-j.Done():
		// finishJob calls the hook before Done observers run their next
		// poll, but either order is fine — drain the hook now.
		select {
		case <-doneJobs:
		case <-time.After(5 * time.Second):
			t.Fatal("OnJobDone never fired")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job never finished")
	}

	// Three fleet leases report against the finished job's id: spans on
	// rank 1, a metric snapshot each, and epoch durations with rank 3
	// running 4× the median. They report as ranks 1–3 of a 4-rank world,
	// ranks the P=1 job never ran: its executor ships rank 0's (empty)
	// metrics snapshot after rank-done, and that frame may land after the
	// job is done, where it would overwrite a fake rank 0's snapshot.
	jobID := j.ID()
	for rank := 1; rank <= 3; rank++ {
		l, err := tcpmpi.Register(c.Addr(), tcpmpi.RegisterOptions{Client: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		rep, err := fleet.NewReporter(l, jobID, rank, 4)
		if err != nil {
			t.Fatal(err)
		}
		if rank == 1 {
			tl := trace.NewTimeline(4)
			tl.Rank(1).AddEvent(trace.Event{
				Name: "scan", Cat: trace.CatSolver, Rank: 1,
				WallStartNs: time.Now().UnixNano(), WallDurNs: int64(time.Millisecond),
			})
			if err := rep.ShipTimeline(tl, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		mreg := trace.NewRegistry()
		mreg.Counter("casvm_iterations_total", "").Add(int64(10 * rank))
		if err := rep.ShipMetrics(mreg); err != nil {
			t.Fatal(err)
		}
		d := 100 * time.Millisecond
		if rank == 3 {
			d = 400 * time.Millisecond
		}
		if err := rep.ReportEpoch(0, d); err != nil {
			t.Fatal(err)
		}
	}

	fl := c.Fleet()
	waitFor(t, "spans and straggler ingested", func() bool {
		ev, _ := fl.Events(0)
		return fl.HasTrace(jobID) && len(ev) == 1
	})
	ev, _ := fl.Events(0)
	if ev[0].Rank != 3 || ev[0].Job != jobID {
		t.Fatalf("straggler event %+v", ev[0])
	}

	waitFor(t, "metrics federated", func() bool {
		return j.Metrics().Snapshot()["fleet_casvm_iterations_total"] == 60
	})
	snap := c.Metrics().Snapshot()
	if snap["fleet_casvm_iterations_total"] != 60 {
		t.Fatalf("fleet-level federated sum %v, want 60", snap["fleet_casvm_iterations_total"])
	}
	if snap["cluster_straggler_detections_total"] != 1 {
		t.Fatalf("straggler total %v, want 1", snap["cluster_straggler_detections_total"])
	}
	if j.Metrics().Snapshot()["cluster_straggler_detections_total"] != 1 {
		t.Fatal("straggler count missing from the job registry")
	}

	var buf bytes.Buffer
	if err := fl.WriteMergedTrace(jobID, &buf); err != nil {
		t.Fatal(err)
	}
	x, err := trace.ReadTraceExtra(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if x.Timebase != trace.TimebaseWall || x.P != 4 {
		t.Fatalf("merged trace: timebase=%q p=%d", x.Timebase, x.P)
	}

	// Job-control traffic still works with the fleet routing in front.
	if _, err := SubmitAndWait(c.Addr(), JobSpec{
		Mixture: testMixture(160), Method: string(core.MethodRACA), P: 1, Seed: 1,
	}, 60*time.Second); err != nil {
		t.Fatalf("submit after fleet traffic: %v", err)
	}
}

// TestFleetStateBoundedAcrossJobs: a coordinator keeps fleet telemetry for
// the most recent fleetKeepJobs finished jobs and forgets the oldest as new
// ones finish — the newest job's trace still merges, the oldest job's is
// refused like an unknown job's.
func TestFleetStateBoundedAcrossJobs(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 1, 0)
	l, err := tcpmpi.Register(c.Addr(), tcpmpi.RegisterOptions{Client: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	fl := c.Fleet()

	const extra = 5
	var rep *fleet.Reporter
	id := func(i int) string { return fmt.Sprintf("job-%d", i+1) } // the ids Submit assigns
	for i := 0; i < fleetKeepJobs+extra; i++ {
		// The job's telemetry exists before it finishes, as an executor's
		// hello does.
		if rep, err = fleet.NewReporter(l, id(i), 0, 1); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "hello ingested", func() bool { return hasJob(fl, id(i)) })
		j, err := c.Submit(JobSpec{Mixture: testMixture(40), Method: string(core.MethodRACA), P: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if j.ID() != id(i) {
			t.Fatalf("job %d got id %q, telemetry was sent for %q", i, j.ID(), id(i))
		}
		<-j.Done()
		if res := j.Result(); res.Err != "" {
			t.Fatalf("job %d: %s", i, res.Err)
		}
	}
	waitFor(t, "oldest jobs forgotten", func() bool { return len(fl.Jobs()) <= fleetKeepJobs })
	if hasJob(fl, id(extra-1)) || !hasJob(fl, id(extra)) {
		t.Fatalf("retained jobs %v: want %q forgotten and %q kept", fl.Jobs(), id(extra-1), id(extra))
	}
	if _, err := fl.MergedTimeline(id(0)); err == nil || !strings.Contains(err.Error(), "no telemetry for job") {
		t.Fatalf("forgotten job's trace: %v, want the unknown-job error", err)
	}

	tl := trace.NewTimeline(1)
	tl.Rank(0).AddEvent(trace.Event{
		Name: "scan", Cat: trace.CatSolver, Rank: 0,
		WallStartNs: time.Now().UnixNano(), WallDurNs: int64(time.Millisecond),
	})
	if err := rep.ShipTimeline(tl, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	newest := id(fleetKeepJobs + extra - 1)
	waitFor(t, "newest job's spans ingested", func() bool { return fl.HasTrace(newest) })
	if _, err := fl.MergedTimeline(newest); err != nil {
		t.Fatalf("newest job's trace: %v", err)
	}
}

func hasJob(fl *fleet.Collector, job string) bool {
	for _, name := range fl.Jobs() {
		if name == job {
			return true
		}
	}
	return false
}
