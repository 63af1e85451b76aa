package trace

import "sort"

// Causal cross-rank tracing: in addition to per-rank spans, the timeline
// records (a) a send→recv FlowEdge per delivered point-to-point message
// (collectives decompose into their point-to-point hops) and (b) a
// per-rank tiling of the virtual clock into typed Segments. Together they
// form the happens-before DAG that internal/trace/critpath walks to
// extract the critical path and split makespan into compute / latency /
// bandwidth / wait, mirroring the paper's α–β analysis.

// SegKind classifies one virtual-time segment of a rank's clock.
type SegKind uint8

const (
	// SegComp is modeled computation (Comm.Charge / ChargeTime).
	SegComp SegKind = iota
	// SegLatency is the α (ts) term of a send, independent of size.
	SegLatency
	// SegBandwidth is the β (tw·bytes) term of a send.
	SegBandwidth
	// SegWait is receiver idle time: the clock jump when a message
	// arrives after the receiver's local clock (imbalance / dependency
	// stall).
	SegWait
)

// String names the segment kind for reports and CLI output.
func (k SegKind) String() string {
	switch k {
	case SegComp:
		return "comp"
	case SegLatency:
		return "latency"
	case SegBandwidth:
		return "bandwidth"
	case SegWait:
		return "wait"
	}
	return "unknown"
}

// Segment is one half-open interval [Start, End) of a rank's virtual
// clock. Segments recorded through Recorder.RecordSegment tile the clock
// exactly: every clock advance on an instrumented Comm passes through
// exactly one segment. JSON keys are deliberately terse — traces carry
// hundreds of thousands of these.
type Segment struct {
	Kind  SegKind `json:"k"`
	Start float64 `json:"s"`
	End   float64 `json:"e"`
	// EdgeID links SegLatency/SegBandwidth to the FlowEdge being sent and
	// SegWait to the FlowEdge being waited on (0 = none).
	EdgeID int64 `json:"id,omitempty"`
	// Phase is the algorithm phase active when the segment was recorded
	// (Recorder.SetPhase), e.g. "partition", "solve", "assemble".
	Phase string `json:"ph,omitempty"`
}

// Dur returns the segment's virtual duration.
func (s Segment) Dur() float64 { return s.End - s.Start }

// FlowEdge is one delivered message: the happens-before edge from a send
// completing on Src to the matching recv on Dst, in both wall and virtual
// time. Recorded on the receiving rank (single-owner, no locking); edge
// ids come from Timeline.NextEdgeID and are unique per logical send
// (fault-injected duplicate deliveries share their original's id and are
// deduplicated at export).
type FlowEdge struct {
	ID    int64 `json:"id"`
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Tag   int   `json:"tag"`
	Bytes int   `json:"bytes"`

	// SendVirtSec is the sender's virtual clock after paying the full α–β
	// cost (send completion); RecvVirtSec is the receiver's clock after
	// synchronizing with the arrival. Causality demands
	// RecvVirtSec ≥ SendVirtSec (violations are counted, never silently
	// ignored).
	SendVirtSec float64 `json:"send_virt_s"`
	RecvVirtSec float64 `json:"recv_virt_s"`

	SendWallNs int64 `json:"send_wall_ns"`
	RecvWallNs int64 `json:"recv_wall_ns"`

	// LatencySec and BandwidthSec split the edge's α–β virtual cost:
	// LatencySec = ts, BandwidthSec = PtoP(bytes) − ts = tw·bytes/4.
	LatencySec   float64 `json:"latency_s"`
	BandwidthSec float64 `json:"bandwidth_s"`
}

// Default per-rank caps for the causal buffers. Dis-SMO on the golden E2E
// run records ~4.3k flows and ~21k segments per rank; the caps leave an
// order of magnitude of headroom while bounding memory like the event cap.
const (
	DefaultMaxFlowsPerRank    = 1 << 16
	DefaultMaxSegmentsPerRank = 1 << 18
)

// SetPhase labels subsequently recorded segments with an algorithm phase
// name. No-op on a nil recorder.
func (r *Recorder) SetPhase(name string) {
	if r == nil {
		return
	}
	r.phase = name
}

// RecordSegment appends one virtual-clock segment. Zero-length comp
// segments are skipped and adjacent comp segments in the same phase are
// merged (the solver charges per scan chunk; merging keeps the tiling
// compact without changing any sum). Latency/bandwidth/wait segments are
// always kept — even zero-length ones — because critpath's re-costing
// needs every send's bandwidth segment to resolve completion times.
func (r *Recorder) RecordSegment(kind SegKind, start, end float64, edgeID int64) {
	if r == nil {
		return
	}
	if kind == SegComp {
		if end == start {
			return
		}
		if n := len(r.segs); n > 0 {
			last := &r.segs[n-1]
			if last.Kind == SegComp && last.End == start && last.Phase == r.phase {
				last.End = end
				return
			}
		}
	}
	if len(r.segs) >= r.maxSegs {
		r.segDrops++
		return
	}
	r.segs = append(r.segs, Segment{Kind: kind, Start: start, End: end, EdgeID: edgeID, Phase: r.phase})
}

// RecordFlow appends one delivered-message edge, checking the causality
// invariant (recv virtual time ≥ send virtual time) as it does. A
// violation increments the timeline's counter instead of recording garbage
// silently; the edge is still kept so the DAG stays inspectable.
func (r *Recorder) RecordFlow(e FlowEdge) {
	if r == nil {
		return
	}
	if e.RecvVirtSec < e.SendVirtSec && r.tl != nil {
		r.tl.causality.Add(1)
	}
	if len(r.flows) >= r.maxFlows {
		r.flowDrops++
		return
	}
	r.flows = append(r.flows, e)
}

// NextEdgeID allocates a fresh flow-edge id (unique per timeline, starting
// at 1). A nil timeline returns 0, the "no edge" sentinel, so uninstrumented
// sends never allocate ids.
func (t *Timeline) NextEdgeID() int64 {
	if t == nil {
		return 0
	}
	return t.edgeSeq.Add(1)
}

// CausalityViolations returns how many recorded flow edges arrived before
// they were sent in virtual time — always 0 unless the clock arithmetic or
// the transport is broken.
func (t *Timeline) CausalityViolations() int64 {
	if t == nil {
		return 0
	}
	return t.causality.Load()
}

// FlowEdges returns every recorded flow edge merged across ranks, sorted
// by id and deduplicated (fault-injected duplicate deliveries reuse the
// original send's id; only the first-sorted copy survives). Like Events,
// call it only after the recording goroutines have finished.
func (t *Timeline) FlowEdges() []FlowEdge {
	if t == nil {
		return nil
	}
	var out []FlowEdge
	for _, r := range t.recs {
		out = append(out, r.flows...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	dst := out[:0]
	var prev int64 = -1
	for _, e := range out {
		if e.ID == prev {
			continue
		}
		prev = e.ID
		dst = append(dst, e)
	}
	return dst
}

// Segments returns each rank's virtual-clock tiling (index = rank). The
// per-rank slices are recorded in clock order by construction.
func (t *Timeline) Segments() [][]Segment {
	if t == nil {
		return nil
	}
	out := make([][]Segment, len(t.recs))
	for i, r := range t.recs {
		out[i] = r.segs
	}
	return out
}

// TraceExtraSchema identifies the casvm-private section of an exported
// Chrome trace file.
const TraceExtraSchema = "casvm.trace/v1"

// TraceExtra is the exact-virtual-time payload embedded in exported Chrome
// traces under the top-level "casvm" key (unknown top-level keys are
// ignored by Perfetto). It round-trips through encoding/json bit-exactly
// (float64 shortest-form encoding), so casvm-profile reproduces the
// in-process critical-path decomposition from the file alone.
type TraceExtra struct {
	Schema              string      `json:"schema"`
	P                   int         `json:"p"`
	CausalityViolations int64       `json:"causality_violations"`
	Segments            [][]Segment `json:"segments"`
	Edges               []FlowEdge  `json:"edges"`

	// Timebase is empty for in-process α–β traces and
	// TimebaseWall for fleet-merged multi-process traces whose coordinates
	// are offset-rebased wall seconds. ClockOffsetsNs, when present, is the
	// per-rank offset (rank clock − coordinator clock, ns) the merge
	// subtracted from each rank's timestamps.
	Timebase       string  `json:"timebase,omitempty"`
	ClockOffsetsNs []int64 `json:"clock_offsets_ns,omitempty"`
}

// Extra assembles the timeline's causal payload for trace export (nil for
// a nil timeline).
func (t *Timeline) Extra() *TraceExtra {
	if t == nil {
		return nil
	}
	return &TraceExtra{
		Schema:              TraceExtraSchema,
		P:                   t.maxRank,
		CausalityViolations: t.CausalityViolations(),
		Segments:            t.Segments(),
		Edges:               t.FlowEdges(),
		Timebase:            t.timebase,
		ClockOffsetsNs:      t.offsetsNs,
	}
}
