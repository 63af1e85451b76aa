package fleet

import (
	"fmt"
	"io"
	"sort"
	"time"

	"casvm/internal/trace"
)

// Merging per-rank telemetry into one timeline.
//
// Worker timestamps are wall clocks from different machines; the merge
// rebases them onto the coordinator's clock in three steps:
//
//  1. Probe: a rank's first spans from a worker triggered an NTP-style
//     lease exchange (tcpmpi.ProbeClock) giving offset ≈ rank clock −
//     coordinator clock; rebased = raw − offset.
//  2. Repair: probe error is bounded by half the RTT, so a rebased edge
//     can still violate recv ≥ send. Each violated edge is a difference
//     constraint on the two ranks' offsets; lowering the receiver's
//     offset by the violation amount (≤ p+2 relaxation passes) resolves
//     what the probes got wrong, from the send and receive wall times
//     every edge carries.
//  3. Clamp: any residual violation is clamped to recv = send and
//     counted — the exported trace always satisfies the causality
//     invariant the critical-path walker assumes.
//
// The merged timeline is wall-timebase: segment and edge coordinates are
// seconds since the earliest rebased instant. Per-rank segment tilings
// are synthesized from the shipped spans — compute categories become
// SegComp, idle gaps become SegWait (ending at a message arrival when one
// lands in the gap, which hands critpath its cross-rank hop), and each
// send point carries a zero-length SegBandwidth so Recost can resolve
// sender completion times. Latency/bandwidth cannot be separated from
// wall observations alone, so an edge's whole transfer time is carried as
// LatencySec and BandwidthSec stays 0.

// compCats are the span categories synthesized into SegComp. Collective
// spans are excluded (their time is the communication being attributed
// through edges and waits); train spans are excluded as outer envelopes.
var compCats = map[string]bool{
	trace.CatSolver:     true,
	trace.CatKernel:     true,
	trace.CatInit:       true,
	trace.CatCheckpoint: true,
	trace.CatRecovery:   true,
}

// mergeInput is the under-lock snapshot of one job's telemetry.
type mergeInput struct {
	p       int
	events  [][]trace.Event   // by rank
	edges   []trace.FlowEdge  // deduplicated by (dst, id)
	offsets []int64           // by rank, ns (rank − coordinator)
	probes  []<-chan struct{} // pending probe completions
}

func (c *Collector) snapshotJob(job string) (*mergeInput, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[job]
	if j == nil {
		return nil, fmt.Errorf("fleet: no telemetry for job %q", job)
	}
	in := &mergeInput{p: j.p}
	if in.p < 1 {
		return nil, fmt.Errorf("fleet: job %q has no ranks", job)
	}
	in.events = make([][]trace.Event, in.p)
	in.offsets = make([]int64, in.p)
	type edgeKey struct {
		dst int
		id  int64
	}
	seen := map[edgeKey]bool{}
	for rank, rs := range j.ranks {
		if rank >= in.p {
			continue
		}
		in.events[rank] = rs.events[:len(rs.events):len(rs.events)]
		in.offsets[rank] = rs.offsetNs
		if rs.probeDone != nil {
			in.probes = append(in.probes, rs.probeDone)
		}
		for _, e := range rs.edges {
			k := edgeKey{e.Dst, e.ID}
			if seen[k] || e.Src < 0 || e.Src >= in.p || e.Dst < 0 || e.Dst >= in.p {
				continue
			}
			seen[k] = true
			in.edges = append(in.edges, e)
		}
	}
	return in, nil
}

// waitProbes blocks until every in-flight clock probe of the snapshot has
// settled or the timeout lapses, then refreshes the offsets from the
// collector state (probes complete asynchronously after the spans land).
func (c *Collector) waitProbes(job string, in *mergeInput, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for _, ch := range in.probes {
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
			c.logf("fleet: job %s: clock probe still pending at merge; using current estimates", job)
		}
	}
	c.mu.Lock()
	if j := c.jobs[job]; j != nil {
		for rank, rs := range j.ranks {
			if rank < len(in.offsets) {
				in.offsets[rank] = rs.offsetNs
			}
		}
	}
	c.mu.Unlock()
}

// repairOffsets relaxes the per-rank offsets against the causality
// constraints the edges impose (rebased recv ≥ rebased send), returning
// how many per-rank adjustments were applied. Offsets only decrease
// (receivers shift later), and each pass applies the largest needed
// correction per rank; p+2 passes bound propagation through any chain.
func repairOffsets(offsets []int64, edges []trace.FlowEdge) (adjustments int) {
	p := len(offsets)
	for pass := 0; pass < p+2; pass++ {
		need := make([]int64, p) // largest recv deficit per receiver
		for _, e := range edges {
			send := e.SendWallNs - offsets[e.Src]
			recv := e.RecvWallNs - offsets[e.Dst]
			if d := send - recv; d > need[e.Dst] {
				need[e.Dst] = d
			}
		}
		changed := false
		for r, d := range need {
			if d > 0 {
				offsets[r] -= d
				adjustments++
				changed = true
			}
		}
		if !changed {
			return adjustments
		}
	}
	return adjustments
}

// MergedTimeline builds one offset-rebased wall-timebase timeline from the
// job's shipped telemetry: all ranks' spans on the coordinator clock,
// cross-process flow edges with fresh ids, and synthesized per-rank
// segment tilings that make the trace analyzable by critpath.
func (c *Collector) MergedTimeline(job string) (*trace.Timeline, error) {
	in, err := c.snapshotJob(job)
	if err != nil {
		return nil, err
	}
	c.waitProbes(job, in, 3*time.Second)

	repairs := repairOffsets(in.offsets, in.edges)
	if repairs > 0 && c.cfg.Metrics != nil {
		c.cfg.Metrics.Counter("cluster_fleet_offset_repairs_total",
			"per-rank offset corrections forced by violated causality constraints").Add(int64(repairs))
	}

	// Rebase everything and find the common origin.
	type redge struct {
		trace.FlowEdge
		sendNs, recvNs int64
	}
	var base int64
	haveBase := false
	observe := func(ns int64) {
		if !haveBase || ns < base {
			base, haveBase = ns, true
		}
	}
	events := make([][]trace.Event, in.p)
	maxPerRank := 0
	for rank := range in.events {
		evs := make([]trace.Event, 0, len(in.events[rank]))
		for _, e := range in.events[rank] {
			e.Rank = rank
			e.WallStartNs -= in.offsets[rank]
			evs = append(evs, e)
			observe(e.WallStartNs)
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].WallStartNs < evs[j].WallStartNs })
		events[rank] = evs
		if len(evs) > maxPerRank {
			maxPerRank = len(evs)
		}
	}
	redges := make([]redge, 0, len(in.edges))
	clamped := 0
	for _, e := range in.edges {
		re := redge{FlowEdge: e}
		re.sendNs = e.SendWallNs - in.offsets[e.Src]
		re.recvNs = e.RecvWallNs - in.offsets[e.Dst]
		if re.recvNs < re.sendNs {
			re.recvNs = re.sendNs // final causality clamp (counted, never silent)
			clamped++
		}
		observe(re.sendNs)
		redges = append(redges, re)
	}
	if clamped > 0 && c.cfg.Metrics != nil {
		c.cfg.Metrics.Counter("cluster_fleet_clamped_edges_total",
			"edges clamped to recv = send after offset repair").Add(int64(clamped))
	}
	if !haveBase {
		return nil, fmt.Errorf("fleet: job %q shipped no spans or edges", job)
	}
	toSec := func(ns int64) float64 { return float64(ns-base) / 1e9 }

	// Fresh edge ids 1..n in arrival order: the processes' ids
	// ((rank+1)<<40 | seq, from internal/mpi) are distinct but sparse.
	sort.SliceStable(redges, func(i, j int) bool { return redges[i].recvNs < redges[j].recvNs })
	tl := trace.NewTimelineCap(in.p, maxPerRank+16)
	tl.SetTimebase(trace.TimebaseWall, append([]int64(nil), in.offsets...))
	final := make([]trace.FlowEdge, len(redges))
	for i, re := range redges {
		sendSec, recvSec := toSec(re.sendNs), toSec(re.recvNs)
		final[i] = trace.FlowEdge{
			ID: int64(i + 1), Src: re.Src, Dst: re.Dst, Tag: re.Tag, Bytes: re.Bytes,
			SendVirtSec: sendSec, RecvVirtSec: recvSec,
			SendWallNs: re.sendNs, RecvWallNs: re.recvNs,
			// Wall observation cannot split α from β: the whole transfer
			// rides in LatencySec (see casvm-profile's wall-timebase note).
			LatencySec: recvSec - sendSec, BandwidthSec: 0,
		}
	}

	for rank := 0; rank < in.p; rank++ {
		rec := tl.Rank(rank)
		for _, e := range events[rank] {
			rec.AddEvent(e)
		}
	}
	for _, e := range final {
		tl.Rank(e.Dst).RecordFlow(e)
	}
	synthesizeSegments(tl, events, final, toSec)
	return tl, nil
}

// synthSeg is one synthesized segment before it is recorded.
type synthSeg struct {
	kind   trace.SegKind
	s, e   float64
	edgeID int64
	phase  string
}

// synthesizeSegments tiles each rank's wall clock: merged compute
// intervals from its spans, idle gaps as waits (split at message
// arrivals, which carry the edge id critpath hops through), and a
// zero-length bandwidth segment at each send point so Recost can resolve
// sender completion times.
func synthesizeSegments(tl *trace.Timeline, events [][]trace.Event, edges []trace.FlowEdge, toSec func(int64) float64) {
	for rank := range events {
		type ival struct {
			s, e float64
			name string
		}
		var comps []ival
		for _, e := range events[rank] {
			if e.Instant || !compCats[e.Cat] || e.WallDurNs <= 0 {
				continue
			}
			comps = append(comps, ival{toSec(e.WallStartNs), toSec(e.WallStartNs + e.WallDurNs), e.Name})
		}
		sort.SliceStable(comps, func(i, j int) bool { return comps[i].s < comps[j].s })
		merged := comps[:0]
		for _, iv := range comps {
			if n := len(merged); n > 0 && iv.s <= merged[n-1].e {
				if iv.e > merged[n-1].e {
					merged[n-1].e = iv.e
				}
				continue
			}
			merged = append(merged, iv)
		}

		type point struct {
			t  float64
			id int64
		}
		var recvs, sends []point
		for _, e := range edges {
			if e.Dst == rank {
				recvs = append(recvs, point{e.RecvVirtSec, e.ID})
			}
			if e.Src == rank {
				sends = append(sends, point{e.SendVirtSec, e.ID})
			}
		}
		sort.SliceStable(recvs, func(i, j int) bool { return recvs[i].t < recvs[j].t })
		sort.SliceStable(sends, func(i, j int) bool { return sends[i].t < sends[j].t })

		end := 0.0
		for _, iv := range merged {
			if iv.e > end {
				end = iv.e
			}
		}
		for _, pt := range recvs {
			if pt.t > end {
				end = pt.t
			}
		}
		for _, pt := range sends {
			if pt.t > end {
				end = pt.t
			}
		}
		if end == 0 && len(merged) == 0 && len(recvs) == 0 && len(sends) == 0 {
			continue // silent rank: no tiling
		}

		var segs []synthSeg
		// fillIdle tiles [a, b) with waits, splitting at arrivals inside it.
		fillIdle := func(a, b float64) {
			for len(recvs) > 0 && recvs[0].t <= b {
				pt := recvs[0]
				recvs = recvs[1:]
				if pt.t > a {
					segs = append(segs, synthSeg{kind: trace.SegWait, s: a, e: pt.t, edgeID: pt.id})
					a = pt.t
				}
				// Arrivals at or before the cursor consumed no idle time:
				// the message was already there when the rank needed it.
			}
			if b > a {
				segs = append(segs, synthSeg{kind: trace.SegWait, s: a, e: b})
			}
		}
		cursor := 0.0
		for _, iv := range merged {
			if iv.s > cursor {
				fillIdle(cursor, iv.s)
			}
			// Arrivals overlapped by compute consume no idle time either.
			for len(recvs) > 0 && recvs[0].t <= iv.e {
				recvs = recvs[1:]
			}
			segs = append(segs, synthSeg{kind: trace.SegComp, s: iv.s, e: iv.e, phase: iv.name})
			if iv.e > cursor {
				cursor = iv.e
			}
		}
		if end > cursor {
			fillIdle(cursor, end)
		}
		for _, pt := range sends {
			segs = append(segs, synthSeg{kind: trace.SegBandwidth, s: pt.t, e: pt.t, edgeID: pt.id})
		}
		// Clock order; zero-length send markers sort ahead of the segment
		// they interrupt so Recost resolves sends before dependent waits.
		sort.SliceStable(segs, func(i, j int) bool {
			if segs[i].s != segs[j].s {
				return segs[i].s < segs[j].s
			}
			return segs[i].e < segs[j].e
		})
		rec := tl.Rank(rank)
		for _, sg := range segs {
			rec.SetPhase(sg.phase)
			rec.RecordSegment(sg.kind, sg.s, sg.e, sg.edgeID)
		}
		rec.SetPhase("")
	}
}

// WriteMergedTrace merges the job's telemetry (MergedTimeline) and writes
// it as one Chrome trace_event file — all ranks as threads of one
// process, cross-rank Perfetto arrows included, with the casvm section
// carrying the synthesized tilings, rebased edges, wall timebase, and the
// per-rank clock offsets applied.
func (c *Collector) WriteMergedTrace(job string, w io.Writer) error {
	tl, err := c.MergedTimeline(job)
	if err != nil {
		return err
	}
	return tl.WriteChromeTrace(w)
}
