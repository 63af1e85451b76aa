package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
	"casvm/internal/tcpmpi"
	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

// mkEvent builds a completed span on a rank's local clock.
func mkEvent(rank int, cat, name string, startNs, durNs int64) trace.Event {
	return trace.Event{Name: name, Cat: cat, Rank: rank, WallStartNs: startNs, WallDurNs: durNs}
}

// linkEdgeID mimics the edge ids of a link world (internal/mpi's RunLink),
// (sender+1)<<40 | seq: distinct across a job's processes but sparse, so the
// merge re-ids them.
func linkEdgeID(src int, seq uint32) int64 { return int64(src+1)<<40 | int64(seq) }

// TestStragglerDetector pins the heuristic: no verdict below stragglerMinRanks,
// none when the median sits under stragglerMinSec, a verdict exactly when a rank
// exceeds stragglerFactor × median, and per-(epoch, rank) dedup within one
// job's table.
func TestStragglerDetector(t *testing.T) {
	var j, noise, ok Epochs

	if ev := j.Observe("j", 0, 0, 0.1); len(ev) != 0 {
		t.Fatalf("verdict below stragglerMinRanks: %+v", ev)
	}
	if ev := j.Observe("j", 1, 0, 0.1); len(ev) != 0 {
		t.Fatalf("verdict below stragglerMinRanks: %+v", ev)
	}
	// Third report crosses stragglerMinRanks; rank 2 runs 5× the median.
	ev := j.Observe("j", 2, 0, 0.5)
	if len(ev) != 1 || ev[0].Rank != 2 || ev[0].Epoch != 0 || ev[0].Job != "j" {
		t.Fatalf("want rank 2 of job j flagged, got %+v", ev)
	}
	if ev[0].Factor < 4.9 || ev[0].Factor > 5.1 {
		t.Fatalf("factor %v, want ~5", ev[0].Factor)
	}
	// Same rank, same epoch: deduplicated even as more reports arrive.
	if ev := j.Observe("j", 3, 0, 0.1); len(ev) != 0 {
		t.Fatalf("duplicate verdict: %+v", ev)
	}
	// A fresh epoch flags again.
	j.Observe("j", 0, 1, 0.1)
	j.Observe("j", 1, 1, 0.1)
	if ev := j.Observe("j", 2, 1, 0.4); len(ev) != 1 {
		t.Fatalf("new epoch not flagged: %+v", ev)
	}
	// Sub-stragglerMinSec medians are scheduler noise, never flagged.
	noise.Observe("noise", 0, 0, 1e-5)
	noise.Observe("noise", 1, 0, 1e-5)
	if ev := noise.Observe("noise", 2, 0, 1.0); len(ev) != 0 {
		t.Fatalf("noise-floor epoch flagged: %+v", ev)
	}
	// A rank within the factor is not flagged.
	ok.Observe("ok", 0, 0, 0.1)
	ok.Observe("ok", 1, 0, 0.1)
	if ev := ok.Observe("ok", 2, 0, 0.14); len(ev) != 0 {
		t.Fatalf("in-band rank flagged: %+v", ev)
	}
	j = Epochs{} // what the coordinator does with an evicted job's table
	j.Observe("j", 0, 0, 0.1)
	j.Observe("j", 1, 0, 0.1)
	if ev := j.Observe("j", 2, 0, 0.5); len(ev) != 1 {
		t.Fatal("a fresh table must hold no dedup state")
	}
}

// TestEventRing pins the cursor contract: monotonic cursors, wrap-around
// drops the oldest prefix, and a stale cursor resumes at the window start.
func TestEventRing(t *testing.T) {
	r := trace.NewRing[StragglerEvent](4)
	if ev, next := r.Since(0); len(ev) != 0 || next != 0 {
		t.Fatalf("empty ring: %v %d", ev, next)
	}
	for i := 0; i < 6; i++ {
		r.Record(StragglerEvent{Rank: i})
	}
	ev, next := r.Since(0)
	if len(ev) != 4 || ev[0].Rank != 2 || ev[3].Rank != 5 {
		t.Fatalf("wrapped window: %+v", ev)
	}
	if next != 6 {
		t.Fatalf("next cursor %d, want 6", next)
	}
	if ev, _ := r.Since(next); len(ev) != 0 {
		t.Fatalf("drained ring returned %+v", ev)
	}
	r.Record(StragglerEvent{Rank: 6})
	ev, next = r.Since(next)
	if len(ev) != 1 || ev[0].Rank != 6 || next != 7 {
		t.Fatalf("incremental read: %+v %d", ev, next)
	}
	if r.Total() != 7 {
		t.Fatalf("total %d, want 7", r.Total())
	}
	// A nil ring records nothing and pages nowhere.
	var nilRing *trace.Ring[StragglerEvent]
	nilRing.Record(StragglerEvent{})
	if ev, next := nilRing.Since(5); len(ev) != 0 || next != 5 || nilRing.Total() != 0 {
		t.Fatalf("nil ring: %v %d", ev, next)
	}
}

// TestStragglerFeed drives epochs through a job's table as the coordinator
// does and asserts the verdict is returned to the caller, who counts it and
// puts it on the feed ring the SSE stream pages, once; the table holds the
// epoch and its verdict, and an emptied table holds nothing.
func TestStragglerFeed(t *testing.T) {
	var tab Epochs
	feed := trace.NewRing[StragglerEvent](8)
	observe := func(rank, epoch int, sec float64) []StragglerEvent {
		v := tab.Observe("j", rank, epoch, sec)
		for _, e := range v {
			feed.Record(e)
		}
		return v
	}
	var verdicts []StragglerEvent
	for rank := 0; rank < 3; rank++ {
		sec := 0.1
		if rank == 1 {
			sec = 0.9
		}
		verdicts = append(verdicts, observe(rank, 3, sec)...)
	}
	if len(verdicts) != 1 || verdicts[0].Rank != 1 || verdicts[0].Epoch != 3 ||
		verdicts[0].Factor < 8 || verdicts[0].Factor > 10 {
		t.Fatalf("verdicts: %+v, want rank 1 of epoch 3 at ~9x", verdicts)
	}
	ev, next := feed.Since(0)
	if len(ev) != 1 || ev[0] != verdicts[0] || ev[0].Job != "j" {
		t.Fatalf("events: %+v", ev)
	}
	if next != 1 {
		t.Fatalf("cursor %d, want 1", next)
	}
	if again := observe(2, 3, 0.1); len(again) != 0 {
		t.Fatalf("a later report of the epoch raised %+v again", again)
	}
	// The stream source adapts the same ring.
	items, n2 := feed.Stream(0)
	if len(items) != 1 || n2 != 1 || items[0] != any(verdicts[0]) {
		t.Fatalf("stream source: %d items, cursor %d", len(items), n2)
	}
	if len(tab.secs) != 1 || len(tab.flagged) != 1 {
		t.Fatalf("table state %v / %v, want epoch 3 and its verdict", tab.secs, tab.flagged)
	}
}

// skewedFixture is a three-rank job whose ranks run on clocks skewed by the
// given offsets (ns), its messages all one way. True timeline, relative to an
// arbitrary origin:
//
//	rank 0: comp [0ms, 10ms), send → 1 at 10ms
//	rank 1: comp [0ms, 4ms), recv from 0 at 12ms, comp [12ms, 20ms), send → 2 at 20ms
//	rank 2: comp [0ms, 6ms), recv from 1 at 22ms, comp [22ms, 30ms)
//
// Every shipped timestamp is true time + skew[rank]; a perfect merge
// recovers the true relative timeline exactly.
func skewedFixture(skew [3]int64) []Rank {
	const ms = int64(time.Millisecond)
	origin := time.Now().UnixNano()
	at := func(rank int, trueNs int64) int64 { return origin + trueNs + skew[rank] }
	return []Rank{
		{Events: []trace.Event{
			mkEvent(0, trace.CatSolver, "scan", at(0, 0), 10*ms),
		}},
		{Events: []trace.Event{
			mkEvent(1, trace.CatSolver, "scan", at(1, 0), 4*ms),
			mkEvent(1, trace.CatSolver, "scan", at(1, 12*ms), 8*ms),
		}, Edges: []trace.FlowEdge{{
			ID: linkEdgeID(0, 7), Src: 0, Dst: 1, Tag: 5, Bytes: 64,
			SendWallNs: at(0, 10*ms), RecvWallNs: at(1, 12*ms),
		}}},
		{Events: []trace.Event{
			mkEvent(2, trace.CatSolver, "scan", at(2, 0), 6*ms),
			mkEvent(2, trace.CatSolver, "scan", at(2, 22*ms), 8*ms),
		}, Edges: []trace.FlowEdge{{
			ID: linkEdgeID(1, 7), Src: 1, Dst: 2, Tag: 5, Bytes: 64,
			SendWallNs: at(1, 20*ms), RecvWallNs: at(2, 22*ms),
		}}},
	}
}

// withReturns adds to skewedFixture(skew) the return messages a collective
// carries, each 2 ms in transit like the messages out: rank 1 answers rank 0
// at 12 ms (arriving at 14 ms), rank 2 answers rank 1 at 22 ms (arriving at
// 24 ms). Every pair then has edges both ways with symmetric transit, so the
// estimate recovers the skews exactly.
func withReturns(skew [3]int64) []Rank {
	const ms = int64(time.Millisecond)
	ranks := skewedFixture(skew)
	origin := ranks[0].Events[0].WallStartNs - skew[0]
	at := func(rank int, trueNs int64) int64 { return origin + trueNs + skew[rank] }
	ranks[0].Edges = append(ranks[0].Edges, trace.FlowEdge{
		ID: linkEdgeID(1, 8), Src: 1, Dst: 0, Tag: 6, Bytes: 8,
		SendWallNs: at(1, 12*ms), RecvWallNs: at(0, 14*ms),
	})
	ranks[1].Edges = append(ranks[1].Edges, trace.FlowEdge{
		ID: linkEdgeID(2, 8), Src: 2, Dst: 1, Tag: 6, Bytes: 8,
		SendWallNs: at(2, 22*ms), RecvWallNs: at(1, 24*ms),
	})
	return ranks
}

// shippedEdges counts the edges the ranks shipped.
func shippedEdges(ranks []Rank) int {
	n := 0
	for _, rk := range ranks {
		n += len(rk.Edges)
	}
	return n
}

// writeMerged merges ranks, writes the merged timeline as a Chrome trace and
// reads its casvm section back strictly, returning it with the trace bytes
// and the merge's repair and clamp counts.
func writeMerged(t *testing.T, ranks []Rank) (x *trace.TraceExtra, file []byte, repairs, clamped int) {
	t.Helper()
	tl, repairs, clamped, err := Merge(ranks)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	x, err = trace.ReadTraceExtra(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return x, buf.Bytes(), repairs, clamped
}

// checkMerged asserts the merged trace invariants every fixture must
// satisfy: strict schema, wall timebase, recv ≥ send on every edge, and a
// critical-path decomposition whose buckets telescope to the makespan.
func checkMerged(t *testing.T, ranks []Rank, wantOffsets *[3]int64) (x *trace.TraceExtra, repairs int) {
	t.Helper()
	x, _, repairs, _ = writeMerged(t, ranks)
	if x.Timebase != trace.TimebaseWall {
		t.Fatalf("timebase %q, want %q", x.Timebase, trace.TimebaseWall)
	}
	if x.P != 3 {
		t.Fatalf("p = %d, want 3", x.P)
	}
	if len(x.Edges) != shippedEdges(ranks) {
		t.Fatalf("edges = %d, want the %d shipped", len(x.Edges), shippedEdges(ranks))
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
	return x, repairs
}

// TestMergeSkewFromEdges injects large known skews into a job whose
// messages go both ways with symmetric transit: the offsets read off the
// edges must be the skews exactly, the merge must recover the true relative
// timeline bit-exactly (integer nanosecond arithmetic), and the critical
// path must thread comp → latency hop → comp across all three ranks.
func TestMergeSkewFromEdges(t *testing.T) {
	skew := [3]int64{0, 2 * int64(time.Second), -int64(1500 * time.Millisecond)}
	x, repairs := checkMerged(t, withReturns(skew), &skew)
	if repairs != 0 {
		t.Fatalf("%d offset repairs of exact offsets", repairs)
	}

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

// TestMergeRepairsUnprobedSkew ships messages one way only, which estimate
// nothing: offsets start at 0, so the +2s/−1.5s skews surface as causality violations that the
// repair passes must absorb — every exported edge still satisfies
// recv ≥ send and the analysis still telescopes.
func TestMergeRepairsUnprobedSkew(t *testing.T) {
	x, repairs := checkMerged(t, skewedFixture([3]int64{0, 2 * int64(time.Second), -int64(1500 * time.Millisecond)}), nil)
	// Rank 2's raw clock runs 1.5s behind rank 1's: its recv appears
	// ~1.5s before the send, so repair must have lowered offsets.
	if repairs < 1 {
		t.Fatalf("offset repairs %v, want ≥ 1", repairs)
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
	origin := time.Now().UnixNano()
	x, _, repairs, clamped := writeMerged(t, []Rank{
		{Events: []trace.Event{mkEvent(0, trace.CatSolver, "scan", origin, 20*ms)}},
		{Events: []trace.Event{mkEvent(1, trace.CatSolver, "scan", origin, 30*ms)},
			Edges: []trace.FlowEdge{
				// Edge A: recv 5ms before send. Repair shifts rank 1 +5ms.
				{ID: linkEdgeID(0, 1), Src: 0, Dst: 1, SendWallNs: origin + 10*ms, RecvWallNs: origin + 5*ms},
				// Edge B in the opposite direction with a tight margin: after
				// repairing A, B violates and only the clamp can fix it.
				{ID: linkEdgeID(1, 2), Src: 1, Dst: 0, SendWallNs: origin + 6*ms, RecvWallNs: origin + 7*ms},
			}},
	})
	for _, e := range x.Edges {
		if e.RecvVirtSec < e.SendVirtSec || e.RecvWallNs < e.SendWallNs {
			t.Fatalf("edge escaped the clamp: %+v", e)
		}
	}
	if repairs < 1 {
		t.Fatalf("expected repairs, got %v", repairs)
	}
	if clamped < 1 {
		t.Fatalf("expected a clamped edge, got %v", clamped)
	}
}

// TestMergeErrors pins the failure modes: no ranks, span-less ranks, and
// ranks whose only edges lie outside the job refuse to merge instead of
// writing empty traces. (A job whose ranks shipped nothing has no trace at
// all: cluster.TestRemoteEveryMethod.)
func TestMergeErrors(t *testing.T) {
	if _, _, _, err := Merge(nil); err == nil {
		t.Fatal("a merge of no ranks must error")
	}
	if _, _, _, err := Merge(make([]Rank, 2)); err == nil {
		t.Fatal("span-less ranks must error")
	}
	foreign := []trace.FlowEdge{{ID: 1, Src: 2, Dst: 0, SendWallNs: 1, RecvWallNs: 2}}
	if _, _, _, err := Merge([]Rank{{Edges: foreign}, {}}); err == nil {
		t.Fatal("an edge from outside the job must be dropped, leaving nothing to merge")
	}
}

// TestEdgeOffsetsOneWayPair: edges between two ranks in one direction
// bound their offset on one side only, so the estimate leaves the receiver
// at 0, however skewed its stamps.
func TestEdgeOffsetsOneWayPair(t *testing.T) {
	edges := []trace.FlowEdge{
		{Src: 0, Dst: 1, SendWallNs: 1000, RecvWallNs: 5e9},
		{Src: 0, Dst: 1, SendWallNs: 2000, RecvWallNs: 6e9},
	}
	if got := edgeOffsets(2, edges); !slices.Equal(got, []int64{0, 0}) {
		t.Fatalf("one-way offsets %v, want [0 0]", got)
	}
}

// TestEdgeOffsetsUnreachableRank: rank 3 exchanges messages both ways with
// rank 2 only, and rank 2 with no one else, so neither has a two-way path to
// rank 0 and both keep offset 0; rank 1, two-way with rank 0, is estimated
// from the least transit each way.
func TestEdgeOffsetsUnreachableRank(t *testing.T) {
	edges := []trace.FlowEdge{
		{Src: 0, Dst: 1, SendWallNs: 100, RecvWallNs: 1300},  // d(0→1) = 1200
		{Src: 0, Dst: 1, SendWallNs: 100, RecvWallNs: 1100},  // least: 1000
		{Src: 1, Dst: 0, SendWallNs: 2000, RecvWallNs: 1200}, // d(1→0) = −800
		{Src: 2, Dst: 3, SendWallNs: 0, RecvWallNs: 9000},
		{Src: 3, Dst: 2, SendWallNs: 0, RecvWallNs: 1000},
		{Src: 0, Dst: 2, SendWallNs: 0, RecvWallNs: 1000}, // one way: no evidence
	}
	if got := edgeOffsets(4, edges); !slices.Equal(got, []int64{0, 900, 0, 0}) {
		t.Fatalf("offsets %v, want [0 900 0 0]", got)
	}
}

// TestEdgeOffsetsDeterministic: when a rank is reachable on several paths
// that disagree, the estimate takes the fewest hops, through the lower rank,
// whatever order the edges arrive in, and a merge of the same ranks writes
// the same bytes every time.
func TestEdgeOffsetsDeterministic(t *testing.T) {
	two := func(a, b int, dab, dba int64) []trace.FlowEdge {
		return []trace.FlowEdge{{Src: a, Dst: b, RecvWallNs: dab}, {Src: b, Dst: a, RecvWallNs: dba}}
	}
	var edges []trace.FlowEdge
	edges = append(edges, two(0, 2, 400, 0)...)  // offset 2 = 200
	edges = append(edges, two(0, 1, 200, 0)...)  // offset 1 = 100
	edges = append(edges, two(2, 3, 1000, 0)...) // via 2: offset 3 = 700
	edges = append(edges, two(1, 3, 0, 1000)...) // via 1: offset 3 = −400
	edges = append(edges, two(3, 4, 2000, 0)...) // offset 4 = offset 3 + 1000
	want := []int64{0, 100, 200, -400, 600}
	for i := range 20 {
		rng := rand.New(rand.NewPCG(uint64(i), 1))
		rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		if got := edgeOffsets(5, edges); !slices.Equal(got, want) {
			t.Fatalf("shuffle %d: offsets %v, want %v", i, got, want)
		}
	}
	ranks := withReturns([3]int64{0, 7, -3})
	_, first, _, _ := writeMerged(t, ranks)
	for range 3 {
		if _, again, _, _ := writeMerged(t, ranks); !bytes.Equal(again, first) {
			t.Fatal("two merges of the same ranks wrote different traces")
		}
	}
}

// TestFleetOverRealLeases is the transport-level end-to-end: three ranks run
// a real tcpmpi mesh — the link type a lease runs on — with internal/mpi
// recording each rank's timeline, rank 0 adds 800 spans, and the merged
// trace must parse strictly, keep every event, satisfy causality, analyze,
// and carry same-host offsets read off the mesh's own messages. Rank 1 takes
// its one message from rank 0 100 ms after it arrived and answers at once:
// an edge's receive stamp is the frame's arrival, so the late take moves no
// offset (stamped at the take, it would put rank 1 ~50 ms ahead).
func TestFleetOverRealLeases(t *testing.T) {
	const p = 3
	const ms = int64(time.Millisecond)
	const rank0Events = 800
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	origin := time.Now().UnixNano()
	ranks := make([]Rank, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comm, err := tcpmpi.DialOptions(rank, addrs, tcpmpi.Options{Listener: lns[rank], Timeout: 30 * time.Second})
			if err != nil {
				errs[rank] = err
				return
			}
			defer comm.Close()
			tl := trace.NewTimelineCap(p, 2048)
			w := mpi.NewWorld(p, perfmodel.Machine{}, 0)
			w.SetTimeline(tl)
			errs[rank] = w.RunLink(rank, comm, func(c *mpi.Comm) error {
				switch rank {
				case 0:
					for peer := 1; peer < p; peer++ {
						c.Send(peer, 7, []byte("out"))
						c.Recv(peer, 8)
					}
				default:
					if rank == 1 {
						time.Sleep(100 * time.Millisecond)
					}
					c.Recv(0, 7)
					c.Send(0, 8, []byte("back"))
				}
				return nil
			})
			n := 8
			if rank == 0 {
				n = rank0Events
			}
			for i := range n {
				tl.Rank(rank).AddEvent(mkEvent(rank, trace.CatSolver, "scan", origin+int64(i)*ms, ms/2))
			}
			ranks[rank] = Rank{Events: tl.Events(), Edges: tl.FlowEdges()}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	x, file, _, _ := writeMerged(t, ranks)
	if x.P != p || x.Timebase != trace.TimebaseWall {
		t.Fatalf("merged extra: p=%d timebase=%q", x.P, x.Timebase)
	}
	if len(x.Edges) == 0 || len(x.Edges) != shippedEdges(ranks) {
		t.Fatalf("edges %d, want the %d shipped", len(x.Edges), shippedEdges(ranks))
	}
	for _, e := range x.Edges {
		if e.RecvVirtSec < e.SendVirtSec {
			t.Fatalf("causality violated: %+v", e)
		}
	}
	nEvents := 0
	var whole map[string]any
	if err := json.Unmarshal(file, &whole); err != nil {
		t.Fatal(err)
	}
	for _, raw := range whole["traceEvents"].([]any) {
		ev := raw.(map[string]any)
		if ev["ph"] == "X" && ev["tid"].(float64) == 0 && ev["name"] == "scan" {
			nEvents++
		}
	}
	if nEvents != rank0Events {
		t.Fatalf("rank 0 events in trace: %d, want %d", nEvents, rank0Events)
	}
	if a, err := critpath.Analyze(critpath.FromExtra(x)); err != nil || a.MakespanSec <= 0 {
		t.Fatalf("analysis: %+v, %v", a, err)
	}
	// One host, one clock: offsets must be tiny compared to the 1s scale,
	// and rank 1's far below the 50 ms a late take would have added.
	for r, off := range x.ClockOffsetsNs {
		if off < -int64(time.Second) || off > int64(time.Second) {
			t.Fatalf("rank %d same-host offset %v", r, time.Duration(off))
		}
	}
	if off := time.Duration(x.ClockOffsetsNs[1]); off < -10*time.Millisecond || off > 10*time.Millisecond {
		t.Fatalf("rank 1 offset %v: its late take moved its clock", off)
	}
}
