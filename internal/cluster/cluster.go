// Package cluster is the elastic runtime behind casvm-cluster: a
// coordinator that owns a lease-based membership table (tcpmpi.Registrar),
// gang-schedules training jobs over the registered worker pool, and turns
// membership churn into re-gangs of the jobs it supervises, so a running job
// shrinks when a lease expires and grows back when a worker joins mid-run.
//
// Workers execute. A worker dials in, holds a heartbeat-renewed lease, keeps
// one mesh listener open and announces its port, and runs its assigned ranks
// inside its own process (cluster.RunExecutor). Every job runs this way.
// RA-CA ranks exchange no messages, so a worker solves its shard ranks with
// the lease as its only connection and streams epoch-boundary checkpoints
// back as lease control frames; a lease expiry — including a real `kill -9`
// on the worker process — re-gangs the survivors (plus any spare) from the
// last streamed checkpoints, and a worker that joins mid-run re-spreads the
// pending ranks onto a wider gang. Every other method's generation is a
// tcpmpi mesh the gang dials on the announced listeners, one rank per worker
// through core.RunRank, and a lost worker reruns the generation from zero on
// the re-ganged workers. Either way the job lands on the fault-free
// ModelHash, with the lost work α–β-priced into TotalSec. See remote.go for
// the coordinator half and executor.go for the worker half.
//
// The package deliberately does not import the HTTP telemetry server: the
// coordinator exposes per-job metrics registries and the fleet telemetry
// collector (trace spans, federated metrics, and straggler events streamed in
// from workers over their leases — see internal/telemetry/fleet), and the
// casvm-cluster command wires them into an HTTP server.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"casvm/internal/tcpmpi"
	"casvm/internal/telemetry/fleet"
	"casvm/internal/trace"
)

// Config tunes a coordinator.
type Config struct {
	// LeaseTTL is how long a silent worker stays a member (0 = the
	// tcpmpi default). Heartbeats renew it at TTL/3.
	LeaseTTL time.Duration

	// Metrics receives the cluster_* membership and job counters
	// (nil = a private registry, available via Coordinator.Metrics).
	Metrics *trace.Registry

	// OnJobDone, when non-nil, is invoked (on the job's goroutine, after
	// its result is published and its workers released) for every job
	// that finishes — the hook casvm-cluster uses to persist merged
	// fleet traces.
	OnJobDone func(*Job)

	// Logf, when non-nil, receives one line per membership and job
	// lifecycle event.
	Logf func(format string, args ...any)
}

// Coordinator runs the cluster: it accepts worker and client leases,
// schedules submitted jobs onto gangs of free workers, and converts lease
// churn into recovery and scale-up actions on the jobs it supervises.
type Coordinator struct {
	reg       *tcpmpi.Registrar
	met       *trace.Registry
	fleet     *fleet.Collector
	onJobDone func(*Job)
	logf      func(string, ...any)
	data      datasetMemo // consecutive jobs over one dataset build it once

	// membership and job counters (satellite: lease-expiry/join/leave
	// visibility in the Prometheus registry)
	cJoins, cLeaves, cExpiries         *trace.Counter
	cSubmitted, cCompleted, cFailed    *trace.Counter
	cScaleups                          *trace.Counter
	gWorkers, gBusy, gRunning, gQueued *trace.Gauge

	mu      sync.Mutex
	workers map[int]tcpmpi.WorkerInfo // registered non-client workers
	ports   map[int]string            // worker id -> its fresh mesh listener, until a generation consumes it
	free    []int                     // unassigned worker ids, registration order
	owner   map[int]*Job              // worker id -> job holding it
	jobs    []*Job                    // submission order
	byID    map[string]*Job
	byKey   map[string]*Job // client idempotency key -> accepted job
	queue   []*Job          // jobs waiting for a gang, FIFO
	nextJob int
	// fleetDone lists the finished jobs whose fleet telemetry is still
	// held, oldest first; finishJob caps it at fleetKeepJobs.
	fleetDone []string
	closed    bool

	wg sync.WaitGroup // running job goroutines
}

// New starts a coordinator listening for worker and client registrations
// on addr ("host:0" picks a free port; see Addr).
func New(addr string, cfg Config) (*Coordinator, error) {
	met := cfg.Metrics
	if met == nil {
		met = trace.NewRegistry()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Coordinator{
		met:     met,
		logf:    logf,
		workers: map[int]tcpmpi.WorkerInfo{},
		ports:   map[int]string{},
		owner:   map[int]*Job{},
		byID:    map[string]*Job{},
		byKey:   map[string]*Job{},

		cJoins:     met.Counter("cluster_worker_joins_total", "workers that registered and received a rank lease"),
		cLeaves:    met.Counter("cluster_worker_leaves_total", "workers that closed their lease cleanly"),
		cExpiries:  met.Counter("cluster_lease_expiries_total", "worker leases that expired or were revoked"),
		cSubmitted: met.Counter("cluster_jobs_submitted_total", "jobs accepted by the coordinator"),
		cCompleted: met.Counter("cluster_jobs_completed_total", "jobs that finished training successfully"),
		cFailed:    met.Counter("cluster_jobs_failed_total", "jobs that ended in an error"),
		cScaleups:  met.Counter("cluster_job_scaleups_total", "re-gangs that widened a running job onto workers attached mid-run"),
		gWorkers:   met.Gauge("cluster_workers", "currently registered workers"),
		gBusy:      met.Gauge("cluster_workers_busy", "workers assigned to running jobs"),
		gRunning:   met.Gauge("cluster_jobs_running", "jobs currently training"),
		gQueued:    met.Gauge("cluster_jobs_queued", "jobs waiting for a gang of free workers"),

		onJobDone: cfg.OnJobDone,
	}
	// The fleet collector must exist before the registrar: a worker's
	// hello can arrive the instant the listener is up.
	c.fleet = fleet.New(fleet.Config{
		Metrics: met,
		Logf:    logf,
		JobRegistry: func(job string) *trace.Registry {
			c.mu.Lock()
			defer c.mu.Unlock()
			if j := c.byID[job]; j != nil {
				return j.metrics
			}
			return nil
		},
	})
	reg, err := tcpmpi.NewRegistrar(addr, tcpmpi.RegistrarConfig{
		LeaseTTL: cfg.LeaseTTL,
		OnJoin:   c.onJoin,
		OnExpire: func(w tcpmpi.WorkerInfo) { c.onGone(w, true) },
		OnLeave:  func(w tcpmpi.WorkerInfo) { c.onGone(w, false) },
		OnFrame:  c.onFrame,
	})
	if err != nil {
		return nil, err
	}
	c.reg = reg
	c.fleet.AttachRegistrar(reg)
	return c, nil
}

// Addr is the registration address workers and clients dial.
func (c *Coordinator) Addr() string { return c.reg.Addr() }

// Metrics is the registry holding the cluster_* counters.
func (c *Coordinator) Metrics() *trace.Registry { return c.met }

// Fleet is the telemetry collector behind the coordinator's leases:
// workers stream trace spans, metric snapshots and epoch durations to it,
// and it serves merged traces, federated aggregates and straggler events.
func (c *Coordinator) Fleet() *fleet.Collector { return c.fleet }

// Close stops accepting registrations, fails every queued job, and waits
// for running jobs to finish. Worker leases end when the registrar closes.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	queued := c.queue
	c.queue = nil
	c.gQueued.Set(0)
	for _, j := range queued {
		j.state = JobFailed
		j.result = &JobResult{ID: j.id, Method: j.spec.Method, P: j.spec.P,
			Err: "coordinator closed before a gang was available"}
		c.cFailed.Inc()
		close(j.done)
	}
	// Wake running supervisors so their goroutines observe the shutdown
	// instead of waiting on frames that will never arrive.
	for _, j := range c.jobs {
		if j.state == JobRunning {
			j.remote.closeRun()
		}
	}
	c.mu.Unlock()
	err := c.reg.Close()
	c.wg.Wait()
	return err
}

// Workers lists the currently registered workers in id order.
func (c *Coordinator) Workers() []tcpmpi.WorkerInfo { return c.reg.Workers() }

// Revoke force-expires a worker's lease — the admin path for draining a
// machine. Any job holding the worker re-gangs as after a real expiry.
func (c *Coordinator) Revoke(id int) error { return c.reg.Revoke(id) }

// Jobs returns every job the coordinator has accepted, in submission
// order.
func (c *Coordinator) Jobs() []*Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Job(nil), c.jobs...)
}

// Submit validates and enqueues a training job. The job starts as soon as
// a gang of spec.P workers is free; Job.Done signals completion.
//
// Submission is idempotent under spec.SubmitKey: a key the coordinator
// has already accepted returns the existing job — queued, running, or
// finished — instead of enqueueing a duplicate, so a client that lost its
// connection after the submit frame landed can safely resubmit and
// reattach to the in-flight work.
func (c *Coordinator) Submit(spec JobSpec) (*Job, error) {
	pr, ds, err := c.data.trainParams(spec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("cluster: coordinator is closed")
	}
	if spec.SubmitKey != "" {
		if j := c.byKey[spec.SubmitKey]; j != nil {
			c.logf("cluster: job %s resubmitted (key %q); attaching to the accepted job", j.id, spec.SubmitKey)
			return j, nil
		}
	}
	c.nextJob++
	id := fmt.Sprintf("job-%d", c.nextJob)
	if spec.ID != "" {
		id = fmt.Sprintf("%s-%d", spec.ID, c.nextJob)
	}
	j := &Job{
		c:       c,
		id:      id,
		spec:    spec,
		params:  pr,
		ds:      ds,
		metrics: trace.NewRegistry(),
		done:    make(chan struct{}),
		state:   JobQueued,
	}
	j.remote = newRemoteRun(j, ds.X.Rows(), ds.Features())
	c.jobs = append(c.jobs, j)
	c.byID[id] = j
	if spec.SubmitKey != "" {
		c.byKey[spec.SubmitKey] = j
	}
	c.queue = append(c.queue, j)
	c.cSubmitted.Inc()
	c.gQueued.Set(float64(len(c.queue)))
	c.logf("cluster: job %s queued (%s, p=%d)", id, spec.Method, spec.P)
	c.schedule()
	return j, nil
}

// onJoin admits a freshly leased worker into the pool (clients are lease
// holders too, but never capacity).
func (c *Coordinator) onJoin(w tcpmpi.WorkerInfo) {
	if w.Client {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[w.ID] = w
	c.free = append(c.free, w.ID)
	c.cJoins.Inc()
	c.gWorkers.Set(float64(len(c.workers)))
	c.logf("cluster: worker %d joined from %s (%d registered)", w.ID, w.Addr, len(c.workers))
	c.schedule()
}

// onGone removes a worker whose lease ended. If a running job held it, the
// job's supervisor is told: its generation is lost, and it re-gangs per the
// job's policy.
func (c *Coordinator) onGone(w tcpmpi.WorkerInfo, expired bool) {
	if w.Client {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if expired {
		c.cExpiries.Inc()
	} else {
		c.cLeaves.Inc()
	}
	delete(c.workers, w.ID)
	delete(c.ports, w.ID)
	c.gWorkers.Set(float64(len(c.workers)))
	if j := c.owner[w.ID]; j != nil {
		delete(c.owner, w.ID)
		j.gang = removeID(j.gang, w.ID)
		c.gBusy.Set(float64(len(c.owner)))
		if j.state == JobRunning {
			j.remote.workerLost(w.ID)
			c.logf("cluster: worker %d lost (expired=%v); re-ganging job %s", w.ID, expired, j.id)
		}
		return
	}
	c.free = removeID(c.free, w.ID)
	c.logf("cluster: worker %d gone (expired=%v)", w.ID, expired)
}

// schedule runs the gang scheduler with c.mu held. Spare workers first
// refill running jobs below their requested width, then admit queued jobs
// FIFO once a full gang is free.
func (c *Coordinator) schedule() {
	if c.closed {
		return
	}
	for _, j := range c.jobs {
		if j.state != JobRunning || len(j.gang) >= j.spec.P || len(c.free) == 0 {
			continue
		}
		for len(j.gang) < j.spec.P && len(c.free) > 0 {
			id := c.free[0]
			c.free = c.free[1:]
			j.gang = append(j.gang, id)
			c.owner[id] = j
			c.logf("cluster: worker %d attached to job %s", id, j.id)
		}
		// The supervisor decides whether the new workers widen a re-gang
		// or backfill the next generation.
		j.remote.kick()
	}
	c.gBusy.Set(float64(len(c.owner)))
	for len(c.queue) > 0 && len(c.free) >= c.queue[0].spec.P {
		j := c.queue[0]
		c.queue = c.queue[1:]
		j.gang = append(j.gang, c.free[:j.spec.P]...)
		c.free = c.free[j.spec.P:]
		for _, id := range j.gang {
			c.owner[id] = j
		}
		j.state = JobRunning
		c.gBusy.Set(float64(len(c.owner)))
		c.gRunning.Add(1)
		c.logf("cluster: job %s starts on workers %v", j.id, j.gang)
		c.wg.Add(1)
		go c.runRemoteJob(j)
	}
	c.gQueued.Set(float64(len(c.queue)))
}

// fleetKeepJobs is how many finished jobs keep their fleet telemetry (spans,
// flow edges, metric snapshots, straggler history) in the collector — enough
// for the telemetry server's /jobs page; the merged trace of an older job is
// gone, like that of a job the collector never saw.
const fleetKeepJobs = 256

// finishJob releases the job's surviving workers back to the pool and
// publishes the result.
func (c *Coordinator) finishJob(j *Job, res *JobResult) {
	c.mu.Lock()
	for _, id := range j.gang {
		delete(c.owner, id)
		c.free = append(c.free, id)
	}
	j.gang = nil
	c.gBusy.Set(float64(len(c.owner)))
	c.gRunning.Add(-1)
	j.result = res
	j.ds = nil // the coordinator keeps every Job; it need not keep their data
	if res.Err == "" {
		j.state = JobDone
		c.cCompleted.Inc()
		c.logf("cluster: job %s done (iters=%d recoveries=%d grows=%d hash=%.12s)",
			j.id, res.Iters, res.Recoveries, res.Grows, res.ModelHash)
	} else {
		j.state = JobFailed
		c.cFailed.Inc()
		c.logf("cluster: job %s failed: %s", j.id, res.Err)
	}
	c.fleetDone = append(c.fleetDone, j.id)
	var forget string
	if len(c.fleetDone) > fleetKeepJobs {
		forget, c.fleetDone = c.fleetDone[0], c.fleetDone[1:]
	}
	close(j.done)
	c.schedule()
	c.mu.Unlock()
	if forget != "" {
		// Outside c.mu: the collector calls back into JobRegistry.
		c.fleet.Forget(forget)
	}
	if c.onJobDone != nil {
		c.onJobDone(j)
	}
}

func datasetName(s JobSpec) string {
	if s.Mixture != nil {
		if s.Mixture.Name != "" {
			return s.Mixture.Name
		}
		return "mixture"
	}
	return s.Dataset
}

func removeID(ids []int, id int) []int {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
