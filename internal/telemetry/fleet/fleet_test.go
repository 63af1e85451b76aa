package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"casvm/internal/tcpmpi"
	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

// mkEvent builds a completed span on a rank's local clock.
func mkEvent(rank int, cat, name string, startNs, durNs int64) trace.Event {
	return trace.Event{Name: name, Cat: cat, Rank: rank, WallStartNs: startNs, WallDurNs: durNs}
}

// tcpEdgeID mimics tcpmpi's receiver-local edge ids, which collide across
// receivers — the merge must key dedup by (dst, id) and re-id afterwards.
func tcpEdgeID(src int, seq uint32) int64 { return int64(src+1)<<40 | int64(seq) }

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStragglerDetector pins the heuristic: no verdict below stragglerMinRanks,
// none when the median sits under stragglerMinSec, a verdict exactly when a rank
// exceeds stragglerFactor × median, and per-(epoch, rank) dedup.
func TestStragglerDetector(t *testing.T) {
	d := newDetector()

	if ev := d.observe("j", 0, 0, 0.1); len(ev) != 0 {
		t.Fatalf("verdict below stragglerMinRanks: %+v", ev)
	}
	if ev := d.observe("j", 1, 0, 0.1); len(ev) != 0 {
		t.Fatalf("verdict below stragglerMinRanks: %+v", ev)
	}
	// Third report crosses stragglerMinRanks; rank 2 runs 5× the median.
	ev := d.observe("j", 2, 0, 0.5)
	if len(ev) != 1 || ev[0].Rank != 2 || ev[0].Epoch != 0 {
		t.Fatalf("want rank 2 flagged, got %+v", ev)
	}
	if ev[0].Factor < 4.9 || ev[0].Factor > 5.1 {
		t.Fatalf("factor %v, want ~5", ev[0].Factor)
	}
	// Same rank, same epoch: deduplicated even as more reports arrive.
	if ev := d.observe("j", 3, 0, 0.1); len(ev) != 0 {
		t.Fatalf("duplicate verdict: %+v", ev)
	}
	// A fresh epoch flags again.
	d.observe("j", 0, 1, 0.1)
	d.observe("j", 1, 1, 0.1)
	if ev := d.observe("j", 2, 1, 0.4); len(ev) != 1 {
		t.Fatalf("new epoch not flagged: %+v", ev)
	}
	// Sub-stragglerMinSec medians are scheduler noise, never flagged.
	d.observe("noise", 0, 0, 1e-5)
	d.observe("noise", 1, 0, 1e-5)
	if ev := d.observe("noise", 2, 0, 1.0); len(ev) != 0 {
		t.Fatalf("noise-floor epoch flagged: %+v", ev)
	}
	// A rank within the factor is not flagged.
	d.observe("ok", 0, 0, 0.1)
	d.observe("ok", 1, 0, 0.1)
	if ev := d.observe("ok", 2, 0, 0.14); len(ev) != 0 {
		t.Fatalf("in-band rank flagged: %+v", ev)
	}
	d.forget("j")
	d.observe("j", 0, 0, 0.1)
	d.observe("j", 1, 0, 0.1)
	if ev := d.observe("j", 2, 0, 0.5); len(ev) != 1 {
		t.Fatal("forget must clear dedup state")
	}
}

// TestEventRing pins the cursor contract: monotonic cursors, wrap-around
// drops the oldest prefix, and a stale cursor resumes at the window start.
func TestEventRing(t *testing.T) {
	r := newEventRing(4)
	if ev, next := r.since(0); len(ev) != 0 || next != 0 {
		t.Fatalf("empty ring: %v %d", ev, next)
	}
	for i := 0; i < 6; i++ {
		r.add(StragglerEvent{Rank: i})
	}
	ev, next := r.since(0)
	if len(ev) != 4 || ev[0].Rank != 2 || ev[3].Rank != 5 {
		t.Fatalf("wrapped window: %+v", ev)
	}
	if next != 6 {
		t.Fatalf("next cursor %d, want 6", next)
	}
	if ev, _ := r.since(next); len(ev) != 0 {
		t.Fatalf("drained ring returned %+v", ev)
	}
	r.add(StragglerEvent{Rank: 6})
	ev, next = r.since(next)
	if len(ev) != 1 || ev[0].Rank != 6 || next != 7 {
		t.Fatalf("incremental read: %+v %d", ev, next)
	}
}

// TestCollectorStragglerPath drives epochs through ObserveEpoch and asserts
// the verdict is returned to the caller, who counts it, and reaches the SSE
// ring, once; Forget drops the detector's state for the job.
func TestCollectorStragglerPath(t *testing.T) {
	c := New(Config{Metrics: trace.NewRegistry()})
	var verdicts []StragglerEvent
	for rank := 0; rank < 3; rank++ {
		sec := 0.1
		if rank == 1 {
			sec = 0.9
		}
		verdicts = append(verdicts, c.ObserveEpoch("j", rank, 3, sec)...)
	}
	if len(verdicts) != 1 || verdicts[0].Rank != 1 || verdicts[0].Epoch != 3 ||
		verdicts[0].Factor < 8 || verdicts[0].Factor > 10 {
		t.Fatalf("verdicts: %+v, want rank 1 of epoch 3 at ~9x", verdicts)
	}
	ev, next := c.Events(0)
	if len(ev) != 1 || ev[0] != verdicts[0] || ev[0].Job != "j" {
		t.Fatalf("events: %+v", ev)
	}
	if next != 1 {
		t.Fatalf("cursor %d, want 1", next)
	}
	if again := c.ObserveEpoch("j", 2, 3, 0.1); len(again) != 0 {
		t.Fatalf("a later report of the epoch raised %+v again", again)
	}
	// The stream source adapts the same ring.
	items, n2 := c.StreamSource()(0)
	if len(items) != 1 || n2 != 1 {
		t.Fatalf("stream source: %d items, cursor %d", len(items), n2)
	}
	if len(c.det.epochs["j"]) != 1 || len(c.det.flagged["j"]) != 1 {
		t.Fatalf("detector state %v / %v, want epoch 3 and its verdict", c.det.epochs, c.det.flagged)
	}
	c.Forget("j")
	if len(c.det.epochs) != 0 || len(c.det.flagged) != 0 {
		t.Fatalf("forget left detector state %v / %v", c.det.epochs, c.det.flagged)
	}
}

// skewedFixture ships a three-rank job whose ranks run on clocks skewed by
// the given offsets (ns). True timeline, relative to an arbitrary origin:
//
//	rank 0: comp [0ms, 10ms), send → 1 at 10ms
//	rank 1: comp [0ms, 4ms), recv from 0 at 12ms, comp [12ms, 20ms), send → 2 at 20ms
//	rank 2: comp [0ms, 6ms), recv from 1 at 22ms, comp [22ms, 30ms)
//
// Every shipped timestamp is true time + skew[rank]; a perfect merge
// recovers the true relative timeline exactly.
func skewedFixture(t *testing.T, c *Collector, skew [3]int64) {
	t.Helper()
	const ms = int64(time.Millisecond)
	origin := time.Now().UnixNano()
	at := func(rank int, trueNs int64) int64 { return origin + trueNs + skew[rank] }

	// Rank r runs on worker r.
	c.StoreSpans("j", 0, 3, 0, []trace.Event{
		mkEvent(0, trace.CatSolver, "scan", at(0, 0), 10*ms),
	}, nil)
	c.StoreSpans("j", 1, 3, 1,
		[]trace.Event{
			mkEvent(1, trace.CatSolver, "scan", at(1, 0), 4*ms),
			mkEvent(1, trace.CatSolver, "scan", at(1, 12*ms), 8*ms),
		},
		[]trace.FlowEdge{{
			ID: tcpEdgeID(0, 7), Src: 0, Dst: 1, Tag: 5, Bytes: 64,
			SendWallNs: at(0, 10*ms), RecvWallNs: at(1, 12*ms),
		}})
	c.StoreSpans("j", 2, 3, 2,
		[]trace.Event{
			mkEvent(2, trace.CatSolver, "scan", at(2, 0), 6*ms),
			mkEvent(2, trace.CatSolver, "scan", at(2, 22*ms), 8*ms),
		},
		[]trace.FlowEdge{{
			ID: tcpEdgeID(1, 7), Src: 1, Dst: 2, Tag: 5, Bytes: 64,
			SendWallNs: at(1, 20*ms), RecvWallNs: at(2, 22*ms),
		}})
}

// checkMerged asserts the merged trace invariants every fixture must
// satisfy: strict schema, wall timebase, recv ≥ send on every edge, and a
// critical-path decomposition whose buckets telescope to the makespan.
func checkMerged(t *testing.T, c *Collector, wantOffsets *[3]int64) *trace.TraceExtra {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteMergedTrace("j", &buf); err != nil {
		t.Fatal(err)
	}
	x, err := trace.ReadTraceExtra(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if x.Timebase != trace.TimebaseWall {
		t.Fatalf("timebase %q, want %q", x.Timebase, trace.TimebaseWall)
	}
	if x.P != 3 {
		t.Fatalf("p = %d, want 3", x.P)
	}
	if len(x.Edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(x.Edges))
	}
	for _, e := range x.Edges {
		if e.RecvVirtSec < e.SendVirtSec {
			t.Fatalf("causality violated after rebase: edge %+v", e)
		}
		if e.RecvWallNs < e.SendWallNs {
			t.Fatalf("wall causality violated: edge %+v", e)
		}
	}
	if x.CausalityViolations != 0 {
		t.Fatalf("merged timeline counted %d causality violations", x.CausalityViolations)
	}
	if wantOffsets != nil {
		if len(x.ClockOffsetsNs) != 3 {
			t.Fatalf("offsets %v, want 3 entries", x.ClockOffsetsNs)
		}
		for r, want := range wantOffsets {
			if x.ClockOffsetsNs[r] != want {
				t.Fatalf("offset[%d] = %d, want %d", r, x.ClockOffsetsNs[r], want)
			}
		}
	}
	a, err := critpath.Analyze(critpath.FromExtra(x))
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanSec <= 0 {
		t.Fatalf("makespan %v", a.MakespanSec)
	}
	if diff := math.Abs(a.Sum() - a.MakespanSec); diff > 1e-9*math.Max(1, a.MakespanSec) {
		t.Fatalf("buckets sum %v != makespan %v (diff %g)", a.Sum(), a.MakespanSec, diff)
	}
	return x
}

// TestMergeWithProbedSkew injects large known skews and a probe that
// reports them exactly: the merge must recover the true relative timeline
// bit-exactly (integer nanosecond arithmetic) and the critical path must
// thread comp → latency hop → comp across all three ranks.
func TestMergeWithProbedSkew(t *testing.T) {
	skew := [3]int64{0, 2 * int64(time.Second), -int64(1500 * time.Millisecond)}
	c := New(Config{
		Metrics: trace.NewRegistry(),
		Probe: func(workerID int) (tcpmpi.ClockEstimate, error) {
			return tcpmpi.ClockEstimate{OffsetNs: skew[workerID], RTTNs: 1000, Samples: 3}, nil
		},
	})
	skewedFixture(t, c, skew)
	waitUntil(t, "trace shipped", func() bool { return c.HasTrace("j") })

	x := checkMerged(t, c, &skew)

	// The true timeline: rank 2's last comp ends at 30ms after origin.
	a, err := critpath.Analyze(critpath.FromExtra(x))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.MakespanSec-0.030) > 1e-6 {
		t.Fatalf("makespan %v, want 30ms (skew not removed)", a.MakespanSec)
	}
	if a.EndRank != 2 {
		t.Fatalf("end rank %d, want 2", a.EndRank)
	}
	if a.Hops != 2 {
		t.Fatalf("hops %d, want 2 (rank 2 ← rank 1 ← rank 0)", a.Hops)
	}
	// comp 10ms (r0) + 2ms latency + comp 8ms (r1) + 2ms latency + comp
	// 8ms (r2) = 30ms; nothing on the critical path waits.
	if math.Abs(a.CompSec-0.026) > 1e-6 || math.Abs(a.LatencySec-0.004) > 1e-6 {
		t.Fatalf("comp %v latency %v, want 26ms / 4ms", a.CompSec, a.LatencySec)
	}

	// What-if re-costing works on the merged trace: with instant
	// transfers (ts=0) the makespan loses exactly the 4ms of latency.
	re, err := critpath.Recost(critpath.FromExtra(x), critpath.Factors{Tc: 1, Ts: 0, Tw: 1})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := critpath.Analyze(re)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ra.MakespanSec-0.026) > 1e-6 {
		t.Fatalf("recost makespan %v, want 26ms", ra.MakespanSec)
	}
}

// TestMergeRepairsUnprobedSkew removes the probe entirely: offsets start
// at 0, so the +2s/−1.5s skews surface as causality violations that the
// repair passes must absorb — every exported edge still satisfies
// recv ≥ send and the analysis still telescopes.
func TestMergeRepairsUnprobedSkew(t *testing.T) {
	reg := trace.NewRegistry()
	c := New(Config{Metrics: reg})
	skewedFixture(t, c, [3]int64{0, 2 * int64(time.Second), -int64(1500 * time.Millisecond)})
	waitUntil(t, "trace shipped", func() bool { return c.HasTrace("j") })

	x := checkMerged(t, c, nil)
	// Rank 2's raw clock runs 1.5s behind rank 1's: its recv appears
	// ~1.5s before the send, so repair must have lowered offsets.
	if got := reg.Snapshot()["cluster_fleet_offset_repairs_total"]; got < 1 {
		t.Fatalf("offset repairs %v, want ≥ 1", got)
	}
	off := x.ClockOffsetsNs
	if off[2] >= off[1] {
		t.Fatalf("repair must shift rank 2 later than rank 1's frame: offsets %v", off)
	}
}

// TestMergeClampsResidualViolation feeds a single edge whose violation no
// offset assignment can repair consistently (the same two ranks also have
// a consistent edge), exercising the final clamp: the export still
// satisfies recv ≥ send and the clamp is counted.
func TestMergeClampsResidualViolation(t *testing.T) {
	const ms = int64(time.Millisecond)
	reg := trace.NewRegistry()
	c := New(Config{Metrics: reg})
	origin := time.Now().UnixNano()
	c.StoreSpans("j", 1, 2, 1,
		[]trace.Event{mkEvent(1, trace.CatSolver, "scan", origin, 30*ms)},
		[]trace.FlowEdge{
			// Edge A: recv 5ms before send. Repair shifts rank 1 +5ms.
			{ID: tcpEdgeID(0, 1), Src: 0, Dst: 1, SendWallNs: origin + 10*ms, RecvWallNs: origin + 5*ms},
			// Edge B in the opposite direction with a tight margin: after
			// repairing A, B violates and only the clamp can fix it.
			{ID: tcpEdgeID(1, 2), Src: 1, Dst: 0, SendWallNs: origin + 6*ms, RecvWallNs: origin + 7*ms},
		})
	c.StoreSpans("j", 0, 2, 0, []trace.Event{mkEvent(0, trace.CatSolver, "scan", origin, 20*ms)}, nil)

	var buf bytes.Buffer
	if err := c.WriteMergedTrace("j", &buf); err != nil {
		t.Fatal(err)
	}
	x, err := trace.ReadTraceExtra(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range x.Edges {
		if e.RecvVirtSec < e.SendVirtSec || e.RecvWallNs < e.SendWallNs {
			t.Fatalf("edge escaped the clamp: %+v", e)
		}
	}
	snap := reg.Snapshot()
	if snap["cluster_fleet_offset_repairs_total"] < 1 {
		t.Fatalf("expected repairs, got %v", snap["cluster_fleet_offset_repairs_total"])
	}
	if snap["cluster_fleet_clamped_edges_total"] < 1 {
		t.Fatalf("expected a clamped edge, got %v", snap["cluster_fleet_clamped_edges_total"])
	}
}

// TestMergeErrors pins the failure modes: unknown jobs and span-less jobs
// refuse to merge instead of writing empty traces, and an empty timeline
// creates no job.
func TestMergeErrors(t *testing.T) {
	c := New(Config{})
	if _, err := c.MergedTimeline("nope"); err == nil {
		t.Fatal("unknown job must error")
	}
	c.StoreSpans("nope", 0, 2, 0, nil, nil)
	if jobs := c.Jobs(); len(jobs) != 0 {
		t.Fatalf("an empty timeline created jobs %v", jobs)
	}
	// A later generation's empty timeline replaces the rank's spans.
	c.StoreSpans("empty", 0, 2, 0, []trace.Event{mkEvent(0, trace.CatSolver, "scan", 1, 1)}, nil)
	c.StoreSpans("empty", 0, 2, 0, nil, nil)
	if _, err := c.MergedTimeline("empty"); err == nil {
		t.Fatal("span-less job must error")
	}
	if c.HasTrace("empty") {
		t.Fatal("HasTrace on span-less job")
	}
	if jobs := c.Jobs(); len(jobs) != 1 || jobs[0] != "empty" {
		t.Fatalf("jobs: %v", jobs)
	}
	c.Forget("empty")
	if jobs := c.Jobs(); len(jobs) != 0 {
		t.Fatalf("forget left: %v", jobs)
	}
}

// TestFleetOverRealLeases is the transport-level end-to-end: three workers
// hold real leases, their ranks' timelines are stored, and the first spans of
// each start a real clock probe over its lease. The merge waits for the
// probes, and the merged trace must parse strictly, keep every event, and
// carry same-host offsets.
func TestFleetOverRealLeases(t *testing.T) {
	reg, err := tcpmpi.NewRegistrar("127.0.0.1:0", tcpmpi.RegistrarConfig{LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	metrics := trace.NewRegistry()
	c := New(Config{
		Metrics: metrics,
		Probe: func(id int) (tcpmpi.ClockEstimate, error) {
			return reg.ProbeClock(id, 5, 3*time.Second)
		},
	})

	const p = 3
	const ms = int64(time.Millisecond)
	const rank0Events = 800
	origin := time.Now().UnixNano()
	for rank := 0; rank < p; rank++ {
		l, err := tcpmpi.Register(reg.Addr(), tcpmpi.RegisterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		// A local timeline, plus one cross-rank edge recorded by receivers.
		tl := trace.NewTimelineCap(p, 2048)
		rec := tl.Rank(rank)
		n := 8
		if rank == 0 {
			n = rank0Events
		}
		for i := 0; i < n; i++ {
			rec.AddEvent(mkEvent(rank, trace.CatSolver, "scan", origin+int64(i)*ms, ms/2))
		}
		if rank > 0 {
			rec.RecordFlow(trace.FlowEdge{
				ID: tcpEdgeID(rank-1, 9), Src: rank - 1, Dst: rank,
				Tag: 3, Bytes: 128,
				SendWallNs: origin + int64(n)*ms, RecvWallNs: origin + int64(n+2)*ms,
			})
		}
		c.StoreSpans("j", rank, p, l.ID(), tl.Events(), tl.FlowEdges())
	}

	var buf bytes.Buffer
	if err := c.WriteMergedTrace("j", &buf); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Snapshot()["cluster_fleet_probe_failures_total"]; got != 0 {
		t.Fatalf("%v clock probes failed over live leases", got)
	}
	x, err := trace.ReadTraceExtra(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if x.P != p || x.Timebase != trace.TimebaseWall {
		t.Fatalf("merged extra: p=%d timebase=%q", x.P, x.Timebase)
	}
	if len(x.Edges) != 2 {
		t.Fatalf("edges %d, want 2", len(x.Edges))
	}
	for _, e := range x.Edges {
		if e.RecvVirtSec < e.SendVirtSec {
			t.Fatalf("causality violated: %+v", e)
		}
	}
	nEvents := 0
	var whole map[string]any
	if err := json.Unmarshal(buf.Bytes(), &whole); err != nil {
		t.Fatal(err)
	}
	for _, raw := range whole["traceEvents"].([]any) {
		ev := raw.(map[string]any)
		if ev["ph"] == "X" && ev["tid"].(float64) == 0 {
			nEvents++
		}
	}
	if nEvents != rank0Events {
		t.Fatalf("rank 0 events in trace: %d, want %d", nEvents, rank0Events)
	}
	if a, err := critpath.Analyze(critpath.FromExtra(x)); err != nil || a.MakespanSec <= 0 {
		t.Fatalf("analysis: %+v, %v", a, err)
	}
	// Same-host probes: offsets must be tiny compared to the 1s scale.
	for r, off := range x.ClockOffsetsNs {
		if off < -int64(time.Second) || off > int64(time.Second) {
			t.Fatalf("rank %d same-host offset %v", r, time.Duration(off))
		}
	}
}

// TestReHelloReprobesNewWorker covers telemetry merging across gang
// generations: when a re-gang moves a rank to a different worker process,
// the rank's spans arrive from a new lease, and the collector must probe the
// new process's clock instead of rebasing its spans with the dead worker's
// offset. Spans for the rank from the same worker again must not re-probe.
func TestReHelloReprobesNewWorker(t *testing.T) {
	offsets := map[int]int64{1: 1000, 2: 777_000}
	var probes atomic.Int64
	c := New(Config{
		Metrics: trace.NewRegistry(),
		Probe: func(workerID int) (tcpmpi.ClockEstimate, error) {
			probes.Add(1)
			return tcpmpi.ClockEstimate{OffsetNs: offsets[workerID], RTTNs: 10, Samples: 3}, nil
		},
	})
	// The merge waits for the probes its snapshot saw, so its offset is the
	// settled one.
	rankOffset := func() int64 {
		t.Helper()
		tl, err := c.MergedTimeline("j")
		if err != nil {
			t.Fatal(err)
		}
		return tl.Extra().ClockOffsetsNs[0]
	}
	spans := []trace.Event{mkEvent(0, trace.CatSolver, "scan", 1000, 10)}

	// An empty timeline probes nothing.
	c.StoreSpans("j", 0, 2, 1, nil, nil)
	if n := probes.Load(); n != 0 {
		t.Fatalf("%d probes for an empty timeline", n)
	}
	// Generation 1: rank 0 lives on worker 1.
	c.StoreSpans("j", 0, 2, 1, spans, nil)
	if off := rankOffset(); off != 1000 {
		t.Fatalf("offset %d after the first spans, want worker 1's 1000", off)
	}
	// The same worker again (the next generation kept the rank there)
	// leaves the settled probe alone.
	c.StoreSpans("j", 0, 2, 1, spans, nil)
	if n := probes.Load(); n != 1 {
		t.Fatalf("%d probes after spans from the same worker, want 1", n)
	}

	// Generation 2: the re-gang moved rank 0 to worker 2.
	c.StoreSpans("j", 0, 2, 2, spans, nil)
	if off := rankOffset(); off != 777_000 {
		t.Fatalf("offset %d after the move, want worker 2's 777000", off)
	}
	if n := probes.Load(); n != 2 {
		t.Fatalf("%d probes after the rank moved, want 2", n)
	}
}
