package fleet

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"casvm/internal/trace"
)

// Merging per-rank telemetry into one timeline.
//
// Worker timestamps are wall clocks from different machines; the merge
// rebases them onto rank 0's clock in three steps, reading nothing but the
// edges the ranks shipped, so the merged trace is a function of them alone:
//
//  1. Estimate: for each ordered rank pair, d(a→b) is the least
//     recv − send over its edges, transit plus (offset b − offset a). Where
//     both directions exist, causality bounds offset b − offset a to
//     [−d(b→a), d(a→b)], and the estimate is that interval's midpoint,
//     (d(a→b) − d(b→a))/2 — the four timestamps of an NTP exchange, from
//     the job's own messages. Offsets propagate from rank 0 (offset 0)
//     breadth first, lower ranks first; a rank with no two-way path to rank
//     0 keeps offset 0. Rebased = raw − offset.
//  2. Repair: an estimate is off by half the asymmetry of the two least
//     transits, once per hop, so a rebased edge can still violate
//     recv ≥ send. Each violated edge is a difference constraint on the
//     two ranks' offsets; lowering the receiver's offset by the violation
//     amount (≤ p+2 relaxation passes) resolves what the estimate got
//     wrong. The offsets are then restated relative to rank 0's.
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

// maxTransitNs bounds the recv − send an edge may show and still count as
// clock evidence: rank-done frames arrive from unauthenticated leases, and a
// stamp an hour or more off (or a difference that overflows) estimates
// nothing. Repair and clamp still apply to such an edge.
const maxTransitNs = int64(time.Hour)

// edgeOffsets estimates each rank's clock offset from rank 0's (step 1
// above): offsets are bounded by p·maxTransitNs, so none overflows.
func edgeOffsets(p int, edges []trace.FlowEdge) []int64 {
	offsets := make([]int64, p)
	if p == 0 {
		return offsets
	}
	type pair struct{ src, dst int }
	least := map[pair]int64{} // least recv − send per ordered pair
	for _, e := range edges {
		d := e.RecvWallNs - e.SendWallNs
		if (e.RecvWallNs >= e.SendWallNs) != (d >= 0) || d > maxTransitNs || d < -maxTransitNs {
			continue // the difference wrapped, or passes the bound
		}
		if old, seen := least[pair{e.Src, e.Dst}]; !seen || d < old {
			least[pair{e.Src, e.Dst}] = d
		}
	}
	twoWay := make([][]int, p) // the ranks each rank has edges to and from
	for k := range least {
		if _, back := least[pair{k.dst, k.src}]; back {
			twoWay[k.src] = append(twoWay[k.src], k.dst)
		}
	}
	reached := make([]bool, p)
	reached[0] = true
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		a := queue[0]
		slices.Sort(twoWay[a])
		for _, b := range twoWay[a] {
			if !reached[b] {
				reached[b] = true
				offsets[b] = offsets[a] + (least[pair{a, b}]-least[pair{b, a}])/2
				queue = append(queue, b)
			}
		}
	}
	return offsets
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

// Merge builds one offset-rebased wall-timebase timeline from per-rank
// telemetry, ranks[r] being rank r's: all ranks' spans on rank 0's clock,
// cross-process flow edges (deduplicated by (dst, id), and dropped when an
// end lies outside the ranks) with fresh ids, and synthesized per-rank
// segment tilings that make the trace analyzable by critpath. It returns how
// many per-rank offset repairs and how many edge clamps it applied, and an
// error when the ranks shipped no span and no edge.
func Merge(ranks []Rank) (tl *trace.Timeline, repairs, clamped int, err error) {
	p := len(ranks)
	var edges []trace.FlowEdge
	type edgeKey struct {
		dst int
		id  int64
	}
	seen := map[edgeKey]bool{}
	for _, rk := range ranks {
		for _, e := range rk.Edges {
			k := edgeKey{e.Dst, e.ID}
			if seen[k] || e.Src < 0 || e.Src >= p || e.Dst < 0 || e.Dst >= p {
				continue
			}
			seen[k] = true
			edges = append(edges, e)
		}
	}
	offsets := edgeOffsets(p, edges)
	repairs = repairOffsets(offsets, edges)
	for r := p - 1; r >= 0; r-- {
		offsets[r] -= offsets[0]
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
	events := make([][]trace.Event, p)
	maxPerRank := 0
	for rank, rk := range ranks {
		evs := make([]trace.Event, 0, len(rk.Events))
		for _, e := range rk.Events {
			e.Rank = rank
			e.WallStartNs -= offsets[rank]
			evs = append(evs, e)
			observe(e.WallStartNs)
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].WallStartNs < evs[j].WallStartNs })
		events[rank] = evs
		if len(evs) > maxPerRank {
			maxPerRank = len(evs)
		}
	}
	redges := make([]redge, 0, len(edges))
	for _, e := range edges {
		re := redge{FlowEdge: e}
		re.sendNs = e.SendWallNs - offsets[e.Src]
		re.recvNs = e.RecvWallNs - offsets[e.Dst]
		if re.recvNs < re.sendNs {
			re.recvNs = re.sendNs // final causality clamp (counted, never silent)
			clamped++
		}
		observe(re.sendNs)
		redges = append(redges, re)
	}
	if !haveBase {
		return nil, repairs, clamped, fmt.Errorf("fleet: the ranks shipped no spans or edges")
	}
	// ns ≥ base, so ns − base as a uint64 is exact even where the int64
	// difference of hostile stamps would wrap.
	toSec := func(ns int64) float64 { return float64(uint64(ns-base)) / 1e9 }

	// Fresh edge ids 1..n in arrival order: the processes' ids
	// ((rank+1)<<40 | seq, from internal/mpi) are distinct but sparse.
	sort.SliceStable(redges, func(i, j int) bool { return redges[i].recvNs < redges[j].recvNs })
	tl = trace.NewTimelineCap(p, maxPerRank+16)
	tl.SetTimebase(trace.TimebaseWall, offsets)
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

	for rank := 0; rank < p; rank++ {
		rec := tl.Rank(rank)
		for _, e := range events[rank] {
			rec.AddEvent(e)
		}
	}
	for _, e := range final {
		tl.Rank(e.Dst).RecordFlow(e)
	}
	synthesizeSegments(tl, events, final, toSec)
	return tl, repairs, clamped, nil
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
