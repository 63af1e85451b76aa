package fleet

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"

	"casvm/internal/tcpmpi"
	"casvm/internal/trace"
)

// Per-rank ingestion caps, mirroring the worker-side timeline caps: a
// chatty or buggy worker cannot grow coordinator memory without bound.
// Overflow is counted (fleet_dropped_total), never silent. maxRank bounds
// the rank ids, and so the job width, a frame can claim: a merge sizes its
// per-rank tables by the width.
const (
	maxEventsPerRank = 1 << 15
	maxEdgesPerRank  = 1 << 16
	maxRank          = 1 << 16
)

// probeSamples is the clock-probe ping burst per worker; eventCap bounds the
// straggler SSE ring.
const (
	probeSamples = 5
	eventCap     = 256
)

// Config wires a Collector to its coordinator.
type Config struct {
	// Metrics is the fleet-level registry (the coordinator's own): frame
	// counters, straggler totals, and fleet-wide federated aggregates land
	// here. Nil disables those metrics.
	Metrics *trace.Registry
	// JobRegistry, when non-nil, resolves a job id to its private registry
	// so federated per-job aggregates and straggler counts appear under
	// the existing /jobs/<id>/metrics namespace. Returning nil skips that
	// job's federation.
	JobRegistry func(job string) *trace.Registry
	// Probe estimates a lease's clock offset. Nil uses the attached
	// registrar's ProbeClock; tests inject synthetic skews here.
	Probe func(workerID int) (tcpmpi.ClockEstimate, error)
	// Logf, when non-nil, receives diagnostic lines.
	Logf func(format string, args ...any)
}

// rankState is one rank's accumulated telemetry within a job.
type rankState struct {
	workerID int
	events   []trace.Event
	edges    []trace.FlowEdge
	dropped  int64

	offsetNs     int64
	rttNs        int64
	probed       bool
	probeStarted bool
	probeDone    chan struct{} // closed when the clock probe settles

	done bool // Done-marked span stream or goodbye received
}

// jobState is one job's fleet-side accumulation.
type jobState struct {
	name  string
	p     int
	ranks map[int]*rankState
	// fed holds each rank's latest metric snapshot for federation.
	fed map[int]map[string]float64
}

// Collector is the coordinator side of the fleet plane. Route lease
// frames into HandleFrame (internal/cluster/wire.go does this for every
// coordinator).
type Collector struct {
	cfg Config

	mu   sync.Mutex
	reg  *tcpmpi.Registrar
	jobs map[string]*jobState

	det  *detector
	ring *eventRing

	framesTotal    *trace.Counter
	eventsTotal    *trace.Counter
	edgesTotal     *trace.Counter
	droppedTotal   *trace.Counter
	stragglerTotal *trace.Counter
	stragglerLast  *trace.Gauge
	probeFailures  *trace.Counter
}

// New creates a Collector. Call AttachRegistrar before workers say hello
// if clock probing should use the real lease RTT exchange.
func New(cfg Config) *Collector {
	c := &Collector{
		cfg:  cfg,
		jobs: map[string]*jobState{},
		det:  newDetector(),
		ring: newEventRing(eventCap),
	}
	if m := cfg.Metrics; m != nil {
		c.framesTotal = m.Counter("cluster_fleet_frames_total", "fleet telemetry frames received")
		c.eventsTotal = m.Counter("cluster_fleet_events_total", "trace events ingested from workers")
		c.edgesTotal = m.Counter("cluster_fleet_edges_total", "flow edges ingested from workers")
		c.droppedTotal = m.Counter("cluster_fleet_dropped_total", "telemetry items dropped at ingestion caps")
		c.stragglerTotal = m.Counter("cluster_straggler_detections_total", "straggler verdicts raised by the online detector")
		c.stragglerLast = m.Gauge("cluster_straggler_last_factor", "sec/median ratio of the most recent straggler verdict")
		c.probeFailures = m.Counter("cluster_fleet_probe_failures_total", "clock probes that returned no samples")
	}
	return c
}

// AttachRegistrar hands the Collector the registrar whose leases carry the
// fleet frames, enabling real clock probes. Call once, before jobs run.
func (c *Collector) AttachRegistrar(r *tcpmpi.Registrar) {
	c.mu.Lock()
	c.reg = r
	c.mu.Unlock()
}

func (c *Collector) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// HandleFrame consumes one lease frame if its tag belongs to the fleet
// block, reporting whether it did. It is safe to call from registrar
// OnFrame callbacks: the clock probe it triggers runs on its own
// goroutine (probing inline would deadlock — the pong arrives on the very
// frame loop that is executing the callback).
func (c *Collector) HandleFrame(w tcpmpi.WorkerInfo, tag int, payload []byte) bool {
	if !IsFleetTag(tag) {
		return false
	}
	if c.framesTotal != nil {
		c.framesTotal.Inc()
	}
	switch tag {
	case TagHello:
		var h Hello
		if err := json.Unmarshal(payload, &h); err != nil || h.Job == "" || h.Rank < 0 {
			c.logf("fleet: bad hello from lease %d: %v", w.ID, err)
			return true
		}
		c.onHello(w.ID, h)
	case TagSpans:
		var p SpanPayload
		if err := json.Unmarshal(payload, &p); err != nil || p.Job == "" || p.Rank < 0 {
			c.logf("fleet: bad span payload from lease %d: %v", w.ID, err)
			return true
		}
		c.onSpans(w.ID, p)
	case TagMetrics:
		var p MetricsPayload
		if err := json.Unmarshal(payload, &p); err != nil || p.Job == "" || p.Rank < 0 {
			c.logf("fleet: bad metrics payload from lease %d: %v", w.ID, err)
			return true
		}
		c.onMetrics(p)
	case TagEpoch:
		var p EpochPayload
		if err := json.Unmarshal(payload, &p); err != nil || p.Job == "" || p.Rank < 0 {
			c.logf("fleet: bad epoch payload from lease %d: %v", w.ID, err)
			return true
		}
		c.onEpoch(p)
	case TagGoodbye:
		var h Hello
		if err := json.Unmarshal(payload, &h); err == nil && h.Job != "" {
			c.mu.Lock()
			if rs := c.rankLocked(h.Job, h.Rank, w.ID); rs != nil {
				rs.done = true
			}
			c.mu.Unlock()
		}
	}
	return true
}

// rankLocked resolves (job, rank), creating state as needed. c.mu held.
func (c *Collector) rankLocked(job string, rank, workerID int) *rankState {
	if rank < 0 || rank > maxRank {
		return nil
	}
	j := c.jobs[job]
	if j == nil {
		j = &jobState{name: job, ranks: map[int]*rankState{}, fed: map[int]map[string]float64{}}
		c.jobs[job] = j
	}
	rs := j.ranks[rank]
	if rs == nil {
		rs = &rankState{workerID: workerID, probeDone: make(chan struct{})}
		j.ranks[rank] = rs
	}
	if rank >= j.p {
		j.p = rank + 1
	}
	return rs
}

func (c *Collector) onHello(workerID int, h Hello) {
	c.mu.Lock()
	rs := c.rankLocked(h.Job, h.Rank, workerID)
	if rs == nil {
		c.mu.Unlock()
		return
	}
	// A re-gang can move a rank to a different worker process mid-job
	// (remote execution recovers dead workers' ranks onto survivors or
	// respawns). The stored clock offset belongs to the previous process's
	// clock, so a hello from a new worker must re-probe — otherwise every
	// span the new worker ships would be rebased with a dead worker's
	// offset in the merged trace.
	rebound := rs.probeStarted && rs.workerID != workerID
	rs.workerID = workerID
	if j := c.jobs[h.Job]; h.P > j.p && h.P <= maxRank+1 {
		j.p = h.P
	}
	probe := c.cfg.Probe
	if probe == nil && c.reg != nil {
		reg := c.reg
		probe = func(id int) (tcpmpi.ClockEstimate, error) {
			return reg.ProbeClock(id, probeSamples, 3*time.Second)
		}
	}
	if rs.probeStarted && !rebound {
		c.mu.Unlock()
		return
	}
	if rebound {
		// Earlier merge snapshots hold the old (already closed) probeDone;
		// snapshots taken from here on wait for the fresh probe.
		rs.probed = false
		rs.probeDone = make(chan struct{})
	}
	rs.probeStarted = true
	doneCh := rs.probeDone
	c.mu.Unlock()

	if probe == nil {
		close(doneCh) // nothing to wait for; offset stays 0
		return
	}
	go func() {
		est, err := probe(workerID)
		c.mu.Lock()
		if err != nil {
			c.logf("fleet: clock probe of lease %d (job %s rank %d): %v", workerID, h.Job, h.Rank, err)
			if c.probeFailures != nil {
				c.probeFailures.Inc()
			}
		} else {
			rs.offsetNs = est.OffsetNs
			rs.rttNs = est.RTTNs
			rs.probed = true
		}
		c.mu.Unlock()
		close(doneCh)
	}()
}

func (c *Collector) onSpans(workerID int, p SpanPayload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.rankLocked(p.Job, p.Rank, workerID)
	if rs == nil {
		return
	}
	for _, e := range p.Events {
		if len(rs.events) >= maxEventsPerRank {
			rs.dropped++
			continue
		}
		rs.events = append(rs.events, e)
	}
	for _, e := range p.Edges {
		if len(rs.edges) >= maxEdgesPerRank {
			rs.dropped++
			continue
		}
		rs.edges = append(rs.edges, e)
	}
	if c.eventsTotal != nil {
		c.eventsTotal.Add(int64(len(p.Events)))
		c.edgesTotal.Add(int64(len(p.Edges)))
	}
	if rs.dropped > 0 && c.droppedTotal != nil {
		c.droppedTotal.Add(rs.dropped)
		rs.dropped = 0
	}
	if p.Done {
		rs.done = true
	}
}

// onMetrics federates one rank's snapshot: every shipped metric appears as
// a fleet_<name> gauge summed across the job's ranks in the job registry,
// and summed across every job in the fleet registry. Gauges (not the
// original kinds) because a sum of counters snapshotted at different
// instants is itself a sampled value — and because re-registering a name
// with a different kind panics by design in trace.Registry.
func (c *Collector) onMetrics(p MetricsPayload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[p.Job]
	if j == nil {
		j = &jobState{name: p.Job, ranks: map[int]*rankState{}, fed: map[int]map[string]float64{}}
		c.jobs[p.Job] = j
	}
	j.fed[p.Rank] = p.Values

	var jobReg *trace.Registry
	if c.cfg.JobRegistry != nil {
		jobReg = c.cfg.JobRegistry(p.Job)
	}
	for name := range p.Values {
		if !validFedName(name) {
			continue
		}
		if jobReg != nil {
			var sum float64
			for _, vals := range j.fed {
				sum += vals[name]
			}
			jobReg.Gauge("fleet_"+name, "sum of "+name+" across the job's ranks").Set(sum)
		}
		if c.cfg.Metrics != nil {
			var sum float64
			for _, job := range c.jobs {
				for _, vals := range job.fed {
					sum += vals[name]
				}
			}
			c.cfg.Metrics.Gauge("fleet_"+name, "sum of "+name+" across all jobs' ranks").Set(sum)
		}
	}
}

// validFedName guards the federated namespace: only casvm's own metric
// families are mirrored, and only names that stay valid Prometheus
// identifiers after prefixing.
func validFedName(name string) bool {
	if name == "" || len(name) > 200 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
		default:
			return false
		}
	}
	return strings.HasPrefix(name, "casvm_") || strings.HasPrefix(name, "cluster_") ||
		strings.HasPrefix(name, "tcpmpi_") || strings.HasPrefix(name, "smo_")
}

func (c *Collector) onEpoch(p EpochPayload) {
	events := c.det.observe(p.Job, p.Rank, p.Epoch, p.Sec)
	if len(events) == 0 {
		return
	}
	var jobReg *trace.Registry
	if c.cfg.JobRegistry != nil {
		jobReg = c.cfg.JobRegistry(p.Job)
	}
	for _, e := range events {
		c.ring.add(e)
		if c.stragglerTotal != nil {
			c.stragglerTotal.Inc()
			c.stragglerLast.Set(e.Factor)
		}
		if jobReg != nil {
			jobReg.Counter("cluster_straggler_detections_total", "straggler verdicts for this job").Inc()
		}
		c.logf("fleet: straggler: job %s rank %d epoch %d ran %.3fs vs median %.3fs (%.2fx)",
			e.Job, e.Rank, e.Epoch, e.Sec, e.MedianSec, e.Factor)
	}
}

// Events returns straggler events at cursors ≥ cursor plus the next
// cursor — the pagination contract of telemetry SSE sources.
func (c *Collector) Events(cursor uint64) ([]StragglerEvent, uint64) {
	return c.ring.since(cursor)
}

// StreamSource adapts Events to the telemetry server's generic stream
// shape for mounting at /fleet/events.
func (c *Collector) StreamSource() func(cursor uint64) ([]any, uint64) {
	return func(cursor uint64) ([]any, uint64) {
		events, next := c.Events(cursor)
		out := make([]any, len(events))
		for i, e := range events {
			out[i] = e
		}
		return out, next
	}
}

// Jobs lists the job ids with fleet telemetry, sorted.
func (c *Collector) Jobs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.jobs))
	for name := range c.jobs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HasTrace reports whether the job has shipped any trace spans worth
// merging.
func (c *Collector) HasTrace(job string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[job]
	if j == nil {
		return false
	}
	for _, rs := range j.ranks {
		if len(rs.events) > 0 || len(rs.edges) > 0 {
			return true
		}
	}
	return false
}

// Forget drops a finished job's accumulated state (after its merged trace
// has been written).
func (c *Collector) Forget(job string) {
	c.mu.Lock()
	delete(c.jobs, job)
	c.mu.Unlock()
	c.det.forget(job)
}
