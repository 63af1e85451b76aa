package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// Span categories, used as the Chrome trace_event "cat" field and for
// phase aggregation in run reports.
const (
	CatSolver     = "solver"     // SMO phases: scan, update
	CatKernel     = "kernel"     // kernel-row fills on cache misses
	CatCollective = "collective" // mpi collectives: Barrier, Bcast, Allreduce, …
	CatInit       = "init"       // partitioning and data movement
	CatTrain      = "train"      // whole-phase per-rank training spans
	CatFault      = "fault"      // injected/observed failures (instant events)
	CatCheckpoint = "checkpoint" // solver state snapshots (recovery support)
	CatRecovery   = "recovery"   // crash recovery: respawn/shrink restarts
)

// Event is one completed timeline span (or instant marker, when WallDurNs
// is zero and Instant is true). Wall times are real elapsed nanoseconds;
// virtual times are the α–β-model seconds of the mpi clock, when the
// recording site tracks one.
type Event struct {
	Name    string
	Cat     string
	Rank    int
	Instant bool

	WallStartNs int64 // unix nanoseconds
	WallDurNs   int64

	VirtStartSec float64 // mpi virtual clock at Begin (0 when untracked)
	VirtDurSec   float64

	Flops float64 // modeled flops attributed to the span (0 when untracked)
}

// Span is the in-flight handle returned by Recorder.Begin; pass it to End.
// The zero Span (from a nil Recorder) is inert.
type Span struct {
	name  string
	cat   string
	start time.Time
	virt  float64
	live  bool
}

// Recorder collects events for one rank. It is owned by that rank's
// goroutine; the Timeline join (reading Events after the world finishes)
// is the reader's happens-before edge. All methods are no-ops on a nil
// receiver and never allocate on that path, so instrumented code calls
// them unconditionally.
type Recorder struct {
	tl     *Timeline
	rank   int
	events []Event
	max    int
	drops  int64

	// Causal buffers (flow.go): delivered-message edges, the virtual-clock
	// segment tiling, and the phase label stamped onto new segments.
	flows     []FlowEdge
	segs      []Segment
	maxFlows  int
	maxSegs   int
	flowDrops int64
	segDrops  int64
	phase     string
}

// Begin opens a span with wall-clock timing only.
func (r *Recorder) Begin(cat, name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{name: name, cat: cat, start: time.Now(), live: true}
}

// BeginVirt opens a span that also tracks the virtual clock, which the
// caller reads from its mpi.Comm.
func (r *Recorder) BeginVirt(cat, name string, virtNow float64) Span {
	if r == nil {
		return Span{}
	}
	return Span{name: name, cat: cat, start: time.Now(), virt: virtNow, live: true}
}

// End closes a wall-clock-only span.
func (r *Recorder) End(sp Span) { r.emit(sp, sp.virt, 0) }

// EndVirt closes a span begun with BeginVirt, with the caller's current
// virtual clock.
func (r *Recorder) EndVirt(sp Span, virtNow float64) { r.emit(sp, virtNow, 0) }

// EndFlops closes a span and attributes a modeled flop count to it.
func (r *Recorder) EndFlops(sp Span, flops float64) { r.emit(sp, sp.virt, flops) }

func (r *Recorder) emit(sp Span, virtEnd, flops float64) {
	if r == nil || !sp.live {
		return
	}
	if len(r.events) >= r.max {
		r.drops++
		return
	}
	r.events = append(r.events, Event{
		Name:         sp.name,
		Cat:          sp.cat,
		Rank:         r.rank,
		WallStartNs:  sp.start.UnixNano(),
		WallDurNs:    int64(time.Since(sp.start)),
		VirtStartSec: sp.virt,
		VirtDurSec:   virtEnd - sp.virt,
		Flops:        flops,
	})
}

// AddEvent appends an already-completed event to the recorder, honoring
// the buffer cap. The event's Rank is overwritten with the recorder's
// rank so merged timelines cannot misattribute spans. This is the
// ingestion path for externally recorded spans (the fleet merge rebasing
// worker events onto a common clock); live instrumentation
// should keep using Begin/End.
func (r *Recorder) AddEvent(e Event) {
	if r == nil {
		return
	}
	if len(r.events) >= r.max {
		r.drops++
		return
	}
	e.Rank = r.rank
	r.events = append(r.events, e)
}

// Instant records a zero-duration marker event (e.g. a fault injection or
// a rank declared lost).
func (r *Recorder) Instant(cat, name string) {
	if r == nil {
		return
	}
	if len(r.events) >= r.max {
		r.drops++
		return
	}
	r.events = append(r.events, Event{
		Name:        name,
		Cat:         cat,
		Rank:        r.rank,
		Instant:     true,
		WallStartNs: time.Now().UnixNano(),
	})
}

// DefaultMaxEventsPerRank bounds each rank's event buffer. Beyond it,
// events are counted as dropped rather than recorded, so a long run cannot
// grow memory without bound; Timeline.Dropped reports how many were lost
// (never silently).
const DefaultMaxEventsPerRank = 1 << 15

// Timeline owns one Recorder per rank. Create it sized to the world,
// install it (mpi.World.SetTimeline or core.Params.Timeline), and read the
// merged events after the run. A nil *Timeline hands out nil Recorders,
// which keeps every instrumentation site on the zero-cost path.
type Timeline struct {
	recs    []*Recorder
	extra   atomic.Int64 // drops from out-of-range Rank requests
	maxRank int

	edgeSeq   atomic.Int64 // flow-edge id allocator (NextEdgeID)
	causality atomic.Int64 // flow edges that violated recv ≥ send

	// Timebase of the segment/edge "virtual" coordinates: empty
	// (the α–β model clock, the default) or TimebaseWall for merged
	// multi-process timelines whose coordinates are offset-rebased wall
	// seconds. offsetsNs, when set, records the per-rank clock offset (rank
	// clock − reference clock, ns) applied during rebasing.
	timebase  string
	offsetsNs []int64
}

// TimebaseWall is the Timeline.SetTimebase / TraceExtra.Timebase value that
// marks coordinates as wall-clock seconds rebased onto a common reference
// clock — produced by the fleet merge of per-rank traces from
// real multi-process runs. An empty timebase is the in-process default:
// α–β-model virtual seconds.
const TimebaseWall = "wall"

// SetTimebase declares the timeline's coordinate system and, optionally,
// the per-rank clock offsets (rank − reference, ns) that were applied to
// land every rank on it. No-op on a nil timeline.
func (t *Timeline) SetTimebase(tb string, offsetsNs []int64) {
	if t == nil {
		return
	}
	t.timebase = tb
	t.offsetsNs = offsetsNs
}

// NewTimeline creates a timeline for p ranks with the default per-rank
// event cap.
func NewTimeline(p int) *Timeline { return NewTimelineCap(p, DefaultMaxEventsPerRank) }

// NewTimelineCap is NewTimeline with an explicit per-rank event cap
// (minimum 1).
func NewTimelineCap(p, maxPerRank int) *Timeline {
	if p < 1 {
		p = 1
	}
	if maxPerRank < 1 {
		maxPerRank = 1
	}
	tl := &Timeline{recs: make([]*Recorder, p), maxRank: p}
	for r := range tl.recs {
		tl.recs[r] = &Recorder{tl: tl, rank: r, max: maxPerRank, events: make([]Event, 0, 64),
			maxFlows: DefaultMaxFlowsPerRank, maxSegs: DefaultMaxSegmentsPerRank}
	}
	return tl
}

// Rank returns rank r's recorder. It is nil-safe: a nil timeline or an
// out-of-range rank yields a nil recorder, keeping callers on the no-op
// path instead of panicking.
func (t *Timeline) Rank(r int) *Recorder {
	if t == nil || r < 0 || r >= len(t.recs) {
		return nil
	}
	return t.recs[r]
}

// Events returns every recorded event merged across ranks, ordered by wall
// start time (ties by rank). Call it only after the recording goroutines
// have finished (e.g. after mpi.World.Run returns).
func (t *Timeline) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, r := range t.recs {
		out = append(out, r.events...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].WallStartNs != out[j].WallStartNs {
			return out[i].WallStartNs < out[j].WallStartNs
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Dropped returns how many events were discarded because a rank's buffer
// hit its cap.
func (t *Timeline) Dropped() int64 {
	if t == nil {
		return 0
	}
	var d int64
	for _, r := range t.recs {
		d += r.drops + r.flowDrops + r.segDrops
	}
	return d + t.extra.Load()
}

// PhaseStat aggregates the events sharing one (category, name) pair — the
// per-phase time split of a run report.
type PhaseStat struct {
	Cat     string  `json:"cat"`
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	WallSec float64 `json:"wall_sec"`
	VirtSec float64 `json:"virt_sec"`
	Flops   float64 `json:"flops,omitempty"`
}

// PhaseStats aggregates the timeline by (category, name), ordered by
// descending wall time. Instant events count but contribute no duration.
func (t *Timeline) PhaseStats() []PhaseStat {
	if t == nil {
		return nil
	}
	idx := map[[2]string]int{}
	var out []PhaseStat
	for _, r := range t.recs {
		for i := range r.events {
			e := &r.events[i]
			k := [2]string{e.Cat, e.Name}
			j, ok := idx[k]
			if !ok {
				j = len(out)
				idx[k] = j
				out = append(out, PhaseStat{Cat: e.Cat, Name: e.Name})
			}
			out[j].Count++
			out[j].WallSec += float64(e.WallDurNs) / 1e9
			out[j].VirtSec += e.VirtDurSec
			out[j].Flops += e.Flops
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallSec > out[j].WallSec })
	return out
}
