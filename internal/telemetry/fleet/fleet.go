// Package fleet is the telemetry plane of a casvm cluster: the coordinator
// hands it what its ranks report in the exec frames it has already
// authorized — a mesh rank's trace spans and flow edges from its rank-done
// frame, an RA-CA rank's epoch durations from its checkpoint frames — and the
// collector merges the spans into one offset-rebased timeline per job (a
// single Chrome trace file with cross-process Perfetto arrows that
// casvm-profile can analyze) and runs an online straggler detector against
// the gang. It reads no wire: every input arrives through StoreSpans and
// ObserveEpoch, after the coordinator's ownership check.
package fleet

import (
	"sort"
	"sync"

	"casvm/internal/tcpmpi"
	"casvm/internal/trace"
)

// maxRank bounds the job width a call can claim: a merge sizes its per-rank
// tables by the width. eventCap bounds the straggler SSE ring. A rank's
// timeline is bounded where the coordinator decodes it, at the worker-side
// trace caps.
const (
	maxRank  = 1 << 16
	eventCap = 256
)

// Config wires a Collector to its coordinator.
type Config struct {
	// Metrics is the coordinator's registry: ingestion counters and the
	// merge's repair and clamp counts land here. Nil disables them.
	Metrics *trace.Registry
	// Probe estimates a worker's clock offset over its lease (the
	// coordinator's is tcpmpi.Registrar.ProbeClock; tests inject synthetic
	// skews here). Nil leaves every offset 0, for the merge's repair pass.
	Probe func(workerID int) (tcpmpi.ClockEstimate, error)
	// Logf, when non-nil, receives diagnostic lines.
	Logf func(format string, args ...any)
}

// rankState is one rank's stored timeline within a job.
type rankState struct {
	workerID int
	events   []trace.Event
	edges    []trace.FlowEdge

	offsetNs  int64
	probeDone chan struct{} // closed when the clock probe settles; nil before one started
}

// jobState is one job's stored timelines.
type jobState struct {
	p     int
	ranks map[int]*rankState
}

// Collector is the coordinator side of the fleet plane.
type Collector struct {
	cfg Config

	mu   sync.Mutex
	jobs map[string]*jobState

	det  *detector
	ring *eventRing

	eventsTotal   *trace.Counter
	edgesTotal    *trace.Counter
	probeFailures *trace.Counter
}

// New creates a Collector.
func New(cfg Config) *Collector {
	c := &Collector{
		cfg:  cfg,
		jobs: map[string]*jobState{},
		det:  newDetector(),
		ring: newEventRing(eventCap),
	}
	if m := cfg.Metrics; m != nil {
		c.eventsTotal = m.Counter("cluster_fleet_events_total", "trace events ingested from workers")
		c.edgesTotal = m.Counter("cluster_fleet_edges_total", "flow edges ingested from workers")
		c.probeFailures = m.Counter("cluster_fleet_probe_failures_total", "clock probes that returned no samples")
	}
	return c
}

func (c *Collector) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// StoreSpans stores rank's timeline, shipped by worker workerID, for job at
// width p: it replaces the rank's earlier spans, and p, the width of the
// generation that reported last, is the merged trace's. The first spans a
// worker ships for a rank start a clock probe of that worker on its own
// goroutine; spans from a later generation start another only if the rank
// moved to another worker, whose clock the stored offset does not describe.
// An empty timeline for a job the collector holds nothing of stores nothing.
func (c *Collector) StoreSpans(job string, rank, p, workerID int, events []trace.Event, edges []trace.FlowEdge) {
	if p < 1 || p > maxRank || rank < 0 || rank >= p {
		return
	}
	shipped := len(events)+len(edges) > 0
	if c.eventsTotal != nil {
		c.eventsTotal.Add(int64(len(events)))
		c.edgesTotal.Add(int64(len(edges)))
	}

	c.mu.Lock()
	j := c.jobs[job]
	if j == nil && !shipped {
		c.mu.Unlock()
		return
	}
	if j == nil {
		j = &jobState{ranks: map[int]*rankState{}}
		c.jobs[job] = j
	}
	j.p = p
	rs := j.ranks[rank]
	if rs == nil {
		rs = &rankState{}
		j.ranks[rank] = rs
	}
	rs.events, rs.edges = events, edges
	if !shipped || (rs.probeDone != nil && rs.workerID == workerID) {
		c.mu.Unlock()
		return
	}
	// Merge snapshots taken before this point hold the previous probe's
	// (closed) channel; those taken from here on wait for this one.
	rs.workerID = workerID
	rs.probeDone = make(chan struct{})
	doneCh := rs.probeDone
	c.mu.Unlock()

	probe := c.cfg.Probe
	if probe == nil {
		close(doneCh) // nothing to wait for; the offset stays
		return
	}
	go func() {
		est, err := probe(workerID)
		c.mu.Lock()
		if err != nil {
			c.logf("fleet: clock probe of lease %d (job %s rank %d): %v", workerID, job, rank, err)
			if c.probeFailures != nil {
				c.probeFailures.Inc()
			}
		} else if rs.workerID == workerID { // the rank did not move again meanwhile
			rs.offsetNs = est.OffsetNs
		}
		c.mu.Unlock()
		close(doneCh)
	}()
}

// ObserveEpoch feeds one rank's epoch duration to the straggler detector and
// returns the verdicts it raises, which also go on the Events stream.
func (c *Collector) ObserveEpoch(job string, rank, epoch int, sec float64) []StragglerEvent {
	events := c.det.observe(job, rank, epoch, sec)
	for _, e := range events {
		c.ring.add(e)
	}
	return events
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

// Jobs lists the job ids with stored spans, sorted.
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
