// Coordinator-side runtime for remotely executed jobs.
//
// A remote job's life is a sequence of *generations*. Each generation
// assigns every still-pending shard rank to one of the job's current
// workers, sends each of them a single start frame over its lease, and
// waits while the workers stream epoch-boundary checkpoints and finished
// shard models back as lease control frames. Remote execution is RA-CA
// only, and RA-CA ranks exchange no messages, so there is nothing to
// connect between workers and nothing to synchronise before they train. The
// coordinator is the only holder of global state: the latest checkpoint per
// rank and every finished shard survive their generation, so a `kill -9`
// (surfacing as a lease expiry) costs at most one epoch of the dead
// worker's ranks. The next generation re-gangs the survivors — plus any
// spare the scheduler attached — and resumes each pending rank from its
// last streamed checkpoint. Because RA-CA shard solves are deterministic in
// (dataset, rank, P, params), any generation history converges to the same
// models, and the job lands on the fault-free ModelHash.
//
// Recovery is α–β-priced like the in-process supervisor: a re-gang sets the
// next generation's virtual-time base to the highest virtual time any rank
// reached (observed via checkpoint and rank-done frames) plus the modeled
// relaunch penalty, so TotalSec carries the cost of lost work instead of
// hiding it.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"casvm/internal/core"
	"casvm/internal/model"
	"casvm/internal/tcpmpi"
)

// genOutcome is why awaitGeneration returned.
type genOutcome int

const (
	genDone   genOutcome = iota // every shard rank has a model
	genLost                     // a generation worker's lease ended
	genGrew                     // the gang outgrew the generation and a re-spread helps
	genFatal                    // a worker reported a job-level failure
	genClosed                   // the coordinator is shutting down
)

// remoteRun is the mutable state of one remote job, shared between the
// job's supervising goroutine and the registrar callbacks (frames, lease
// expiries, scheduler attaches). Guarded by its own mutex; the lock order
// is c.mu before rr.mu, never the reverse.
type remoteRun struct {
	j              *Job
	rows, features int // of the job's dataset: what a returned shard is held to

	mu   sync.Mutex
	cond *sync.Cond
	// events counts membership/frame wakeups so waiters snapshotting
	// coordinator state outside rr.mu never miss one.
	events int

	closed bool
	fatal  string

	gen        int
	genActive  bool
	genBase    float64
	genWorkers []int         // assignment order of the active generation
	assign     map[int][]int // worker id -> assigned shard ranks (active gen)
	lost       bool          // an active-generation worker died

	ckptBlob  map[int][]byte
	ckptIters map[int]int
	doneRank  map[int]*core.ShardResult

	base       float64 // virtual-time origin of the next generation
	maxVirt    float64 // highest α–β virtual time any rank reached
	recoveries int
	grows      int
	joined     int
	lostRanks  []int
}

func newRemoteRun(j *Job, rows, features int) *remoteRun {
	rr := &remoteRun{
		j:         j,
		rows:      rows,
		features:  features,
		ckptBlob:  map[int][]byte{},
		ckptIters: map[int]int{},
		doneRank:  map[int]*core.ShardResult{},
	}
	rr.cond = sync.NewCond(&rr.mu)
	return rr
}

// update applies f to the run's state under its lock, counts the event and
// wakes every waiter. Callers may hold c.mu; update only takes rr.mu.
func (rr *remoteRun) update(f func()) {
	rr.mu.Lock()
	f()
	rr.events++
	rr.mu.Unlock()
	rr.cond.Broadcast()
}

// kick wakes every waiter after external state (gang membership) changed.
func (rr *remoteRun) kick() { rr.update(func() {}) }

// closeRun unblocks the supervising goroutine for coordinator shutdown.
func (rr *remoteRun) closeRun() { rr.update(func() { rr.closed = true }) }

// workerLost records a generation member's death: its pending ranks go on
// the lost ledger and the supervisor is woken to abort and re-gang. Called
// under c.mu from onGone.
func (rr *remoteRun) workerLost(id int) {
	rr.update(func() {
		ranks, ok := rr.assign[id]
		if !rr.genActive || !ok {
			return
		}
		rr.lost = true
		for _, r := range ranks {
			if rr.doneRank[r] == nil {
				rr.lostRanks = append(rr.lostRanks, r)
			}
		}
	})
}

// pendingRanks lists shard ranks without a finished model, sorted.
func (rr *remoteRun) pendingRanksLocked() []int {
	var out []int
	for r := 0; r < rr.j.spec.P; r++ {
		if rr.doneRank[r] == nil {
			out = append(out, r)
		}
	}
	return out
}

// onCkpt stores the latest checkpoint for a rank. Progress is monotonic:
// an older deposit (a stale generation's frame arriving late) never
// regresses the resume point.
func (rr *remoteRun) onCkpt(m execRank, blob []byte) {
	rr.update(func() {
		if m.Rank < rr.j.spec.P && rr.doneRank[m.Rank] == nil && m.Iters >= rr.ckptIters[m.Rank] {
			rr.ckptBlob[m.Rank] = blob
			rr.ckptIters[m.Rank] = m.Iters
			rr.maxVirt = math.Max(rr.maxVirt, rr.genBase+m.VirtSec)
		}
	})
}

// decodeShard turns a rank-done frame's sections into a shard result: the
// model must decode under the job's kernel at the dataset's width and cannot
// have more support vectors than the dataset has rows.
func (rr *remoteRun) decodeShard(h execRank, secs [][]byte) (*core.ShardResult, error) {
	m, center, err := model.DecodeShard(secs, rr.j.params.Kernel, rr.features)
	if err != nil {
		return nil, err
	}
	if m.NSV() > rr.rows {
		return nil, fmt.Errorf("cluster: shard of %d support vectors from a dataset of %d rows", m.NSV(), rr.rows)
	}
	return &core.ShardResult{Model: m, Center: center, Iters: h.Iters}, nil
}

// onRankDone stores a finished shard, decoded and checked at the trust
// boundary; duplicates from stale generations are ignored — shard solves
// are deterministic, so the first result is as good as any.
func (rr *remoteRun) onRankDone(m execRank, sh *core.ShardResult) {
	rr.update(func() {
		if m.Rank < rr.j.spec.P && rr.doneRank[m.Rank] == nil {
			rr.doneRank[m.Rank] = sh
			delete(rr.ckptBlob, m.Rank)
			rr.maxVirt = math.Max(rr.maxVirt, rr.genBase+m.VirtSec)
		}
	})
}

// onFail records a worker-reported solve failure, which fails the job: a
// spec or solver error repeats on any gang.
func (rr *remoteRun) onFail(m execFail) {
	rr.update(func() {
		if rr.genActive && m.Gen == rr.gen {
			rr.fatal = fmt.Sprintf("rank %d: %s", m.Rank, m.Err)
		}
	})
}

// RemoteProgress is a snapshot of a remote job's execution state, for
// status reporting and tests.
type RemoteProgress struct {
	Generation int         `json:"generation"`
	Workers    []int       `json:"workers,omitempty"` // active generation, assignment order
	CkptIters  map[int]int `json:"ckpt_iters,omitempty"`
	DoneRanks  []int       `json:"done_ranks,omitempty"`
	Recoveries int         `json:"recoveries,omitempty"`
	Grows      int         `json:"grows,omitempty"`
}

// Remote reports a remote job's live execution progress, or nil for
// in-process jobs.
func (j *Job) Remote() *RemoteProgress {
	rr := j.remote
	if rr == nil {
		return nil
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	p := &RemoteProgress{
		Generation: rr.gen,
		Workers:    append([]int(nil), rr.genWorkers...),
		CkptIters:  map[int]int{},
		Recoveries: rr.recoveries,
		Grows:      rr.grows,
	}
	for r, it := range rr.ckptIters {
		p.CkptIters[r] = it
	}
	for r := range rr.doneRank {
		p.DoneRanks = append(p.DoneRanks, r)
	}
	sort.Ints(p.DoneRanks)
	return p
}

// execFrame routes an executor control frame into the owning job's remote
// runtime; the error is a frame refused. Frames from leases the job does not
// own are dropped — a departed worker's late frames carry no authority.
func (c *Coordinator) execFrame(w tcpmpi.WorkerInfo, tag int, payload []byte) error {
	ident := func(job string) *remoteRun {
		c.mu.Lock()
		defer c.mu.Unlock()
		j := c.byID[job]
		if j == nil || j.remote == nil || c.owner[w.ID] != j {
			return nil
		}
		return j.remote
	}
	switch tag {
	case tagExecCkpt:
		m, blob, err := decodeExecCkpt(payload)
		if err != nil {
			return err
		}
		if rr := ident(m.Job); rr != nil {
			rr.onCkpt(m, blob)
		}
	case tagExecRankDone:
		m, secs, err := decodeExecRankDone(payload)
		if err != nil {
			return err
		}
		// Ownership first: only a lease the named job actually holds gets
		// to spend coordinator cycles decoding a model.
		if rr := ident(m.Job); rr != nil {
			sh, err := rr.decodeShard(m, secs)
			if err != nil {
				return fmt.Errorf("rank-done shard rejected: %w", err)
			}
			rr.onRankDone(m, sh)
		}
	case tagExecFail:
		m, err := decodeExecFail(payload)
		if err != nil {
			return err
		}
		if rr := ident(m.Job); rr != nil {
			c.logf("cluster: job %s gen %d rank %d failed on lease %d: %s",
				m.Job, m.Gen, m.Rank, w.ID, m.Err)
			rr.onFail(m)
		}
	}
	return nil
}

// awaitRemoteGang blocks until the job's gang satisfies its policy —
// respawn insists on the full requested width before (re)launching, shrink
// proceeds with any survivor, and either policy picks up spares the
// scheduler attached — or the coordinator closes.
func (c *Coordinator) awaitRemoteGang(j *Job) ([]int, error) {
	rr := j.remote
	need := 1
	if j.spec.policy() == core.RecoverRespawn {
		need = j.spec.P
	}
	for {
		rr.mu.Lock()
		seen := rr.events
		closed := rr.closed
		rr.mu.Unlock()
		c.mu.Lock()
		gang := append([]int(nil), j.gang...)
		closed = closed || c.closed
		c.mu.Unlock()
		if closed {
			return nil, fmt.Errorf("cluster: coordinator closed while job %s awaited a gang", j.id)
		}
		if len(gang) >= need {
			return gang, nil
		}
		c.logf("cluster: job %s waiting for %d worker(s), have %d", j.id, need, len(gang))
		rr.mu.Lock()
		for rr.events == seen && !rr.closed {
			rr.cond.Wait()
		}
		rr.mu.Unlock()
	}
}

// beginGeneration opens generation state for the given gang and assigns
// every pending shard rank round-robin over it (one rank per worker at
// full width; survivors absorb a dead worker's ranks after a shrink).
//
// A generation never gangs more workers than it has pending ranks: a
// zero-rank member (respawn backfill after some ranks finished, a spare
// attached post-shrink) has nothing to execute, and a start frame that
// assigns no ranks is one the executor's decoder rejects. The returned gang
// is the truncated one the generation actually runs on; extra workers stay
// attached to the job and join the next generation that needs them.
func (rr *remoteRun) beginGeneration(gang []int) (gen int, genGang []int, assign map[int][]int, pending []int) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.gen++
	rr.genActive = true
	rr.genBase = rr.base
	pending = rr.pendingRanksLocked()
	if len(pending) > 0 && len(gang) > len(pending) {
		gang = gang[:len(pending)]
	}
	rr.genWorkers = append([]int(nil), gang...)
	rr.assign = map[int][]int{}
	rr.lost = false
	for i, r := range pending {
		id := gang[i%len(gang)]
		rr.assign[id] = append(rr.assign[id], r)
	}
	return rr.gen, rr.genWorkers, rr.assign, pending
}

// endGeneration closes the active generation's bookkeeping.
func (rr *remoteRun) endGeneration() {
	rr.mu.Lock()
	rr.genActive = false
	rr.assign = map[int][]int{}
	rr.mu.Unlock()
}

// errRegang signals a dispatch that could not complete because membership
// moved underneath it; the supervisor prices it and re-gangs.
var errRegang = fmt.Errorf("cluster: generation dispatch interrupted")

// dispatchGeneration launches one generation: a single start frame per
// worker carrying the spec, its shard ranks and their resume checkpoints.
// There is no barrier — ranks never talk to each other, so a worker that
// dies before its frame lands and one that dies mid-solve are the same
// event, and the lease reports both.
func (c *Coordinator) dispatchGeneration(j *Job, gang []int, gen int, every int) error {
	rr := j.remote
	rr.mu.Lock()
	starts := make([][]byte, len(gang))
	for i, id := range gang {
		starts[i] = encodeExecStart(execStart{
			Job: j.id, Gen: gen, Spec: j.spec, Ranks: rr.assign[id], CheckpointEvery: every,
		}, rr.ckptBlob)
	}
	rr.mu.Unlock()
	for i, id := range gang {
		if err := c.reg.Send(id, tagExecStart, starts[i]); err != nil {
			c.logf("cluster: job %s gen %d: start to worker %d: %v", j.id, gen, id, err)
			return errRegang
		}
	}
	return nil
}

// awaitGeneration blocks until the active generation resolves and reports
// how. A gang that outgrew the generation only forces a re-spread when a
// worker is carrying more than one pending rank — otherwise the spare
// waits for the next membership event.
func (c *Coordinator) awaitGeneration(j *Job) genOutcome {
	rr := j.remote
	for {
		rr.mu.Lock()
		seen := rr.events
		switch {
		case rr.fatal != "":
			rr.mu.Unlock()
			return genFatal
		case rr.closed:
			rr.mu.Unlock()
			return genClosed
		// Done outranks lost: a worker dying after its final rank-done
		// frame already delivered everything; re-ganging would price a
		// recovery nothing needs.
		case len(rr.pendingRanksLocked()) == 0:
			rr.mu.Unlock()
			return genDone
		case rr.lost:
			rr.mu.Unlock()
			return genLost
		}
		pending := len(rr.pendingRanksLocked())
		width := len(rr.genWorkers)
		rr.mu.Unlock()

		c.mu.Lock()
		gangNow := len(j.gang)
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return genClosed
		}
		if gangNow > width && pending > width {
			return genGrew
		}

		rr.mu.Lock()
		for rr.events == seen && !rr.closed {
			rr.cond.Wait()
		}
		rr.mu.Unlock()
	}
}

// abortGeneration tells the surviving gang to cancel the generation's
// in-flight solves (best effort — a dead lease simply fails the send).
func (c *Coordinator) abortGeneration(j *Job, gen int, reason string) {
	payload := marshalExec(execAbort{Job: j.id, Gen: gen, Reason: reason})
	c.mu.Lock()
	gang := append([]int(nil), j.gang...)
	c.mu.Unlock()
	for _, id := range gang {
		if err := c.reg.Send(id, tagExecAbort, payload); err != nil {
			c.logf("cluster: job %s gen %d: abort to worker %d: %v", j.id, gen, id, err)
		}
	}
}

// priceRegang advances the job's virtual-time base past the failed
// generation — the highest virtual time any rank reached plus the modeled
// relaunch penalty — mirroring the in-process supervisor's failClock +
// penalty accounting.
func (rr *remoteRun) priceRegang() {
	rr.mu.Lock()
	base := rr.base
	if rr.maxVirt > base {
		base = rr.maxVirt
	}
	rr.base = base + core.RestartPenaltySec
	rr.mu.Unlock()
}

// runRemoteJob supervises one remote job end to end: gang → start →
// stream → (re-gang)* → assemble. It runs on the job goroutine runJob
// spawns and publishes through finishJob exactly like the in-process path.
func (c *Coordinator) runRemoteJob(j *Job) {
	rr := j.remote
	res := &JobResult{ID: j.id, Method: j.spec.Method, Dataset: datasetName(j.spec), P: j.spec.P}
	start := time.Now()
	ds := j.ds
	rec := j.params.Recovery
	every := rec.Cadence()

	fail := func(format string, args ...any) {
		res.Err = fmt.Sprintf(format, args...)
	}
supervise:
	for {
		gang, err := c.awaitRemoteGang(j)
		if err != nil {
			fail("%v", err)
			break
		}
		gen, genGang, assign, pending := rr.beginGeneration(gang)
		if len(pending) == 0 {
			rr.endGeneration()
			break // every shard already delivered by an earlier generation
		}
		c.met.Counter("cluster_remote_generations_total",
			"remote-execution generations dispatched (first launches and re-gangs)").Inc()
		c.logf("cluster: job %s gen %d on workers %v (pending ranks %v, assignment %v)",
			j.id, gen, genGang, pending, assign)
		outcome := genLost
		if err := c.dispatchGeneration(j, genGang, gen, every); err == nil {
			outcome = c.awaitGeneration(j)
		}
		rr.endGeneration()
		switch outcome {
		case genDone:
			break supervise
		case genFatal:
			rr.mu.Lock()
			msg := rr.fatal
			rr.mu.Unlock()
			fail("cluster: job %s failed remotely: %s", j.id, msg)
			break supervise
		case genClosed:
			fail("cluster: coordinator closed while job %s ran", j.id)
			break supervise
		case genGrew:
			c.abortGeneration(j, gen, "gang grew; re-spreading ranks")
			c.mu.Lock()
			added := len(j.gang) - len(gang)
			c.mu.Unlock()
			if added < 0 {
				added = 0
			}
			rr.mu.Lock()
			rr.grows++
			rr.joined += added
			rr.mu.Unlock()
			rr.priceRegang()
			c.cScaleups.Inc()
			j.metrics.Counter("casvm_grows_total", "elastic world scale-ups").Inc()
			c.logf("cluster: job %s gen %d re-gangs wider (+%d worker(s))", j.id, gen, added)
		default: // genLost: a failure to recover from
			c.abortGeneration(j, gen, "worker lost; re-ganging from last checkpoints")
			rr.mu.Lock()
			recov := rr.recoveries
			rr.mu.Unlock()
			if recov >= core.MaxRestarts {
				fail("cluster: recovery budget exhausted after %d restarts of job %s", recov, j.id)
				break supervise
			}
			rr.mu.Lock()
			rr.recoveries++
			rr.mu.Unlock()
			rr.priceRegang()
			j.metrics.Counter("casvm_recoveries_total", "supervised crash recoveries").Inc()
			c.logf("cluster: job %s gen %d aborted (worker lost); re-ganging from last streamed checkpoints",
				j.id, gen)
		}
	}
	res.WallSec = time.Since(start).Seconds()

	if res.Err == "" {
		rr.mu.Lock()
		res.FinalP = j.spec.P
		res.Recoveries = rr.recoveries
		res.Grows = rr.grows
		res.JoinedRanks = rr.joined
		res.LostRanks = append([]int(nil), rr.lostRanks...)
		res.Generations = rr.gen
		res.TotalSec = rr.maxVirt
		shards := make(map[int]*core.ShardResult, len(rr.doneRank))
		for r, sh := range rr.doneRank {
			shards[r] = sh
			if sh.Iters > res.Iters {
				res.Iters = sh.Iters
			}
		}
		rr.mu.Unlock()
		set, err := core.AssembleShards(shards, ds.Features())
		if err != nil {
			fail("%v", err)
		} else {
			res.SVs = set.NSV() // counted from the models held, never reported
			if ds.TestX != nil {
				res.Accuracy = set.Accuracy(ds.TestX, ds.TestY)
			}
			if res.ModelHash, err = core.ModelHash(set); err != nil {
				fail("%v", err)
			}
		}
	}
	c.finishJob(j, res)
}
