// Package fleet is the telemetry plane of a casvm cluster: workers stream
// trace spans, flow edges, metric snapshots, and per-epoch progress to the
// coordinator over their existing lease connections, and the coordinator
// merges them into one offset-rebased timeline per job (a single Chrome
// trace file with cross-process Perfetto arrows that casvm-profile can
// analyze), federates the metrics into per-job and fleet-level Prometheus
// aggregates, and runs an online straggler detector against the gang.
//
// The wire layer is deliberately thin: each message is one lease control
// frame whose payload is JSON. Frames ride the same connection as
// heartbeats and job control, so no new ports, dial paths, or failure
// modes are introduced — a worker that can hold a lease can ship
// telemetry. Frame kinds live in the 120–129 block, routed ahead of the
// cluster job-control tags (internal/cluster/wire.go).
package fleet

import (
	"encoding/json"
	"fmt"
	"time"

	"casvm/internal/tcpmpi"
	"casvm/internal/trace"
)

// Fleet control-frame tags. They share the lease-frame tag space with the
// cluster's job control (tagSubmit=101, tagResult=102 in
// internal/cluster/wire.go, which routes this block to the Collector) and its
// executor frames (108–113 in internal/cluster/execwire.go).
const (
	// TagHello announces a worker's (job, rank, p) before any other fleet
	// frame; it also triggers the coordinator's clock probe of this lease.
	TagHello = 120
	// TagSpans carries a chunk of trace events and flow edges.
	TagSpans = 121
	// TagMetrics carries a metric-registry snapshot for federation.
	TagMetrics = 122
	// TagEpoch reports one epoch's duration on one rank — the straggler
	// detector's input.
	TagEpoch = 123
	// TagGoodbye marks a rank's telemetry stream complete.
	TagGoodbye = 124
)

// IsFleetTag reports whether a lease-frame tag belongs to the fleet
// telemetry block.
func IsFleetTag(tag int) bool { return tag >= TagHello && tag <= TagGoodbye }

// Hello is the TagHello payload.
type Hello struct {
	Job  string `json:"job"`
	Rank int    `json:"rank"`
	P    int    `json:"p"`
}

// SpanPayload is the TagSpans payload: one chunk of a rank's timeline.
// Event ranks and edge endpoints are global rank ids, not lease ids.
type SpanPayload struct {
	Job    string           `json:"job"`
	Rank   int              `json:"rank"`
	Events []trace.Event    `json:"events,omitempty"`
	Edges  []trace.FlowEdge `json:"edges,omitempty"`
	// Done marks the final chunk of this rank's stream.
	Done bool `json:"done,omitempty"`
}

// MetricsPayload is the TagMetrics payload: a point-in-time snapshot of a
// rank's metric registry (counter/gauge values and histogram sums, as
// produced by trace.Registry.Snapshot).
type MetricsPayload struct {
	Job    string             `json:"job"`
	Rank   int                `json:"rank"`
	Values map[string]float64 `json:"values"`
}

// EpochPayload is the TagEpoch payload.
type EpochPayload struct {
	Job   string  `json:"job"`
	Rank  int     `json:"rank"`
	Epoch int     `json:"epoch"`
	Sec   float64 `json:"sec"`
}

// Reporter is the worker side of the fleet plane: a thin sender bound to
// one lease and one (job, rank). All methods are safe to call from the
// training goroutine; each is one frame write on the lease.
type Reporter struct {
	lease *tcpmpi.Lease
	job   string
	rank  int
}

// NewReporter announces (job, rank, p) on the lease and returns the bound
// sender. The hello must precede every other fleet frame from this lease —
// the collector drops frames from leases it has no hello for.
func NewReporter(l *tcpmpi.Lease, job string, rank, p int) (*Reporter, error) {
	r := &Reporter{lease: l, job: job, rank: rank}
	if err := r.send(TagHello, Hello{Job: job, Rank: rank, P: p}); err != nil {
		return nil, fmt.Errorf("fleet: hello: %w", err)
	}
	return r, nil
}

func (r *Reporter) send(tag int, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return r.lease.Send(tag, b)
}

// ReportEpoch reports one epoch's duration for straggler detection.
func (r *Reporter) ReportEpoch(epoch int, d time.Duration) error {
	return r.send(TagEpoch, EpochPayload{Job: r.job, Rank: r.rank, Epoch: epoch, Sec: d.Seconds()})
}

// ShipMetrics sends a snapshot of the registry for federation (nil-safe:
// a nil registry ships an empty snapshot).
func (r *Reporter) ShipMetrics(reg *trace.Registry) error {
	return r.send(TagMetrics, MetricsPayload{Job: r.job, Rank: r.rank, Values: reg.Snapshot()})
}

// spanChunk bounds events (and edges) per TagSpans frame, keeping frames
// comfortably under the transport's payload limits.
const spanChunk = 512

// ShipTimeline streams the timeline's events and flow edges in chunks and
// closes the stream with a Done marker. Call it after the run finishes
// (the same happens-before rule as trace.Timeline.Events). The timeout
// bounds the whole ship.
func (r *Reporter) ShipTimeline(tl *trace.Timeline, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	events := tl.Events()
	edges := tl.FlowEdges()
	for len(events) > 0 || len(edges) > 0 {
		if timeout > 0 && !time.Now().Before(deadline) {
			return fmt.Errorf("fleet: ship timeline: timeout after %v", timeout)
		}
		p := SpanPayload{Job: r.job, Rank: r.rank}
		n := len(events)
		if n > spanChunk {
			n = spanChunk
		}
		p.Events, events = events[:n], events[n:]
		n = len(edges)
		if n > spanChunk {
			n = spanChunk
		}
		p.Edges, edges = edges[:n], edges[n:]
		if err := r.send(TagSpans, p); err != nil {
			return fmt.Errorf("fleet: ship timeline: %w", err)
		}
	}
	return r.send(TagSpans, SpanPayload{Job: r.job, Rank: r.rank, Done: true})
}

// Goodbye marks this rank's telemetry stream complete.
func (r *Reporter) Goodbye() error {
	return r.send(TagGoodbye, Hello{Job: r.job, Rank: r.rank})
}
