// Coordinator-side runtime of a job.
//
// A job's life is a sequence of *generations*. Each generation
// assigns ranks to the job's current workers and sends each of them a single
// start frame over its lease, then waits while the workers stream results
// back as lease control frames. There are two kinds:
//
//   - RA-CA ranks exchange no messages, so a generation assigns every
//     still-pending shard rank round-robin over the gang and connects nothing.
//     Workers stream epoch-boundary checkpoints and finished shard models; the
//     latest checkpoint per rank and every finished shard survive their
//     generation, so a `kill -9` (surfacing as a lease expiry) costs at most
//     one epoch of the dead worker's ranks, and the next generation resumes
//     each pending rank from its last streamed checkpoint.
//   - Every other method communicates, so a generation is a tcpmpi mesh of one
//     rank per gang worker, dialed on listeners the executors announced. It
//     starts once every gang worker has a fresh port on record, and commits
//     only when all of its ranks have reported; a lost worker re-gangs — onto
//     the survivors, re-partitioned, under shrink; at full width under
//     respawn — and the generation reruns from zero.
//
// Because rank results are deterministic in (dataset, rank, P, params), any
// generation history converges to the same models, and the job lands on the
// fault-free ModelHash (for the partitioned methods under shrink, on the hash
// of the width it finished at).
//
// Recovery is α–β-priced like the in-process supervisor: a re-gang sets the
// next generation's virtual-time base to the highest virtual time any rank
// reached (observed via checkpoint and rank-done frames) plus the modeled
// relaunch penalty, so TotalSec carries the cost of lost work instead of
// hiding it.
package cluster

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"casvm/internal/core"
	"casvm/internal/model"
	"casvm/internal/tcpmpi"
	"casvm/internal/telemetry/fleet"
	"casvm/internal/trace"
)

// genOutcome is why awaitGeneration returned.
type genOutcome int

const (
	genDone   genOutcome = iota // every shard rank has a model
	genLost                     // a generation worker's lease ended, or a mesh rank ended unreported
	genGrew                     // the gang outgrew the generation and a re-spread helps
	genFatal                    // a worker reported a job-level failure
	genClosed                   // the coordinator is shutting down
)

// remoteRun is the mutable state of one job's generations, shared between
// the job's supervising goroutine and the registrar callbacks (frames, lease
// expiries, scheduler attaches). Guarded by its own mutex; the lock order
// is c.mu before rr.mu, never the reverse.
type remoteRun struct {
	j              *Job
	rows, features int  // of the job's dataset: what a returned shard is held to
	mesh           bool // a communicating method: each generation is a tcpmpi mesh

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
	width      int           // ranks the model is built from: Spec.P, or the mesh generation's width

	ckptBlob    map[int][]byte
	ckptIters   map[int]int
	doneRank    map[int]*core.ShardResult
	msgs, bytes int64 // summed over doneRank's headers

	spans  map[int]fleet.Rank // doneRank's shipped timelines, those not empty
	epochs fleet.Epochs       // the ranks' epoch seconds and the verdicts raised

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
		mesh:      j.spec.Method != string(core.MethodRACA),
		width:     j.spec.P,
		ckptBlob:  map[int][]byte{},
		ckptIters: map[int]int{},
		doneRank:  map[int]*core.ShardResult{},
		spans:     map[int]fleet.Rank{},
	}
	rr.cond = sync.NewCond(&rr.mu)
	return rr
}

// dropTelemetry forgets the job's timelines and epoch table: the job has
// left the coordinator's retention window.
func (rr *remoteRun) dropTelemetry() {
	rr.mu.Lock()
	rr.spans, rr.epochs = map[int]fleet.Rank{}, fleet.Epochs{}
	rr.mu.Unlock()
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

// portFrom wakes the supervisor for a worker's fresh mesh port. From a
// member of the active mesh generation whose rank has not reported, it means
// that rank's run ended without a result — a peer failed, or the mesh never
// came up — so the generation is lost.
func (rr *remoteRun) portFrom(id int) {
	rr.update(func() {
		if ranks, ok := rr.assign[id]; ok && rr.mesh && rr.genActive && rr.doneRank[ranks[0]] == nil {
			rr.lost = true
		}
	})
}

// pendingRanks lists ranks without a reported result, sorted.
func (rr *remoteRun) pendingRanksLocked() []int {
	var out []int
	for r := 0; r < rr.width; r++ {
		if rr.doneRank[r] == nil {
			out = append(out, r)
		}
	}
	return out
}

// onCkpt stores the latest checkpoint for a rank. Progress is monotonic:
// an older deposit (a stale generation's frame arriving late) never
// regresses the resume point. A deposit that advances the rank's iteration
// count ends one of its epochs, whose index onCkpt returns: ⌈Iters/cadence⌉ −
// 1 at the cadence the coordinator dispatched, the same for a rank resumed in
// a later generation as for one that never stopped. A Final deposit at the
// count of the last one ends no epoch.
func (rr *remoteRun) onCkpt(m execRank, blob []byte) (epoch int, ended bool) {
	rr.update(func() {
		if m.Rank < rr.width && rr.doneRank[m.Rank] == nil && m.Iters >= rr.ckptIters[m.Rank] {
			every := rr.j.params.Recovery.Cadence()
			epoch, ended = (m.Iters+every-1)/every-1, m.Iters > rr.ckptIters[m.Rank]
			rr.ckptBlob[m.Rank] = blob
			rr.ckptIters[m.Rank] = m.Iters
			rr.maxVirt = math.Max(rr.maxVirt, rr.genBase+m.VirtSec)
		}
	})
	return epoch, ended
}

// decodeShard turns a rank-done frame's sections into a shard result. A rank
// holds a model exactly when the method trains one per rank, or it is rank 0;
// the model must decode under the job's kernel at the dataset's width and
// cannot have more support vectors than the dataset has rows.
func (rr *remoteRun) decodeShard(h execRank, secs [][]byte) (*core.ShardResult, error) {
	method := rr.j.params.Method
	if want := h.Rank == 0 || method.IndependentModels(); want != (len(secs) > 0) {
		return nil, fmt.Errorf("cluster: rank %d of a %s job sent %d model sections", h.Rank, method, len(secs))
	}
	if len(h.Layers) > core.TreeLayers(rr.width) {
		return nil, fmt.Errorf("cluster: rank %d reports %d tree layers at p=%d", h.Rank, len(h.Layers), rr.width)
	}
	sh := &core.ShardResult{Iters: h.Iters, LayerIters: h.Layers}
	if len(secs) == 0 {
		return sh, nil
	}
	m, center, err := model.DecodeShard(secs, rr.j.params.Kernel, rr.features)
	if err != nil {
		return nil, err
	}
	if m.NSV() > rr.rows {
		return nil, fmt.Errorf("cluster: shard of %d support vectors from a dataset of %d rows", m.NSV(), rr.rows)
	}
	sh.Model, sh.Center = m, center
	return sh, nil
}

// onRankDone stores a finished rank, decoded and checked at the trust
// boundary, with its timeline. An RA-CA duplicate from a stale generation is
// ignored — shard solves are deterministic, so the first result is as good
// as any; a mesh rank counts only from the active generation, whose width it
// was run at.
func (rr *remoteRun) onRankDone(m execRank, sh *core.ShardResult, sp execSpans) {
	rr.update(func() {
		if rr.mesh && (!rr.genActive || m.Gen != rr.gen) {
			return
		}
		if m.Rank < rr.width && rr.doneRank[m.Rank] == nil {
			if len(sp.Events)+len(sp.Edges) > 0 {
				rr.spans[m.Rank] = fleet.Rank(sp)
				rr.j.c.cFleetEvents.Add(int64(len(sp.Events)))
				rr.j.c.cFleetEdges.Add(int64(len(sp.Edges)))
			}
			rr.doneRank[m.Rank] = sh
			rr.msgs += m.Msgs
			rr.bytes += m.Bytes
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

// RemoteProgress is a snapshot of a job's execution state, for status
// reporting and tests.
type RemoteProgress struct {
	Generation int         `json:"generation"`
	Workers    []int       `json:"workers,omitempty"` // active generation, assignment order
	CkptIters  map[int]int `json:"ckpt_iters,omitempty"`
	DoneRanks  []int       `json:"done_ranks,omitempty"`
	Recoveries int         `json:"recoveries,omitempty"`
	Grows      int         `json:"grows,omitempty"`
}

// Remote reports the job's live execution progress on its workers.
func (j *Job) Remote() *RemoteProgress {
	rr := j.remote
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

// Timeline merges the job's accepted rank timelines — those of the mesh
// generation that reported last — onto rank 0's clock (fleet.Merge, which
// reads the clock offsets off the ranks' own flow edges), counting the
// merge's offset repairs and edge clamps. It is a function of what the ranks
// shipped and does no network I/O. A job whose ranks shipped no spans, or
// that has left the retention window, has no timeline: the error wraps
// fs.ErrNotExist.
func (j *Job) Timeline() (*trace.Timeline, error) {
	rr := j.remote
	rr.mu.Lock()
	ranks := make([]fleet.Rank, rr.width)
	for r, sp := range rr.spans {
		ranks[r] = sp
	}
	shipped := len(rr.spans)
	rr.mu.Unlock()
	if shipped == 0 {
		return nil, fmt.Errorf("cluster: job %s holds no trace: %w", j.id, fs.ErrNotExist)
	}
	tl, repairs, clamped, err := fleet.Merge(ranks)
	if repairs > 0 {
		j.c.met.Counter("cluster_fleet_offset_repairs_total",
			"per-rank offset corrections forced by violated causality constraints").Add(int64(repairs))
	}
	if clamped > 0 {
		j.c.met.Counter("cluster_fleet_clamped_edges_total",
			"edges clamped to recv = send after offset repair").Add(int64(clamped))
	}
	return tl, err
}

// WriteTrace writes the job's merged Timeline as one Chrome trace_event
// file — all ranks as threads of one process, cross-rank Perfetto arrows
// included, with the casvm section carrying the synthesized tilings,
// rebased edges, wall timebase, and the per-rank clock offsets applied.
func (j *Job) WriteTrace(w io.Writer) error {
	tl, err := j.Timeline()
	if err != nil {
		return err
	}
	return tl.WriteChromeTrace(w)
}

// execFrame routes an executor control frame into the owning job's
// runtime, or records a worker's mesh port; the error is a frame refused.
// Frames from leases the job does not own are dropped — a departed worker's
// late frames carry no authority, and neither does the telemetry they carry.
func (c *Coordinator) execFrame(w tcpmpi.WorkerInfo, tag int, payload []byte) error {
	ident := func(job string) *remoteRun {
		c.mu.Lock()
		defer c.mu.Unlock()
		j := c.byID[job]
		if j == nil || c.owner[w.ID] != j {
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
			if epoch, ended := rr.onCkpt(m, blob); ended {
				c.observeEpoch(rr, m.Rank, epoch, m.EpochSec)
			}
		}
	case tagExecRankDone:
		m, spans, secs, err := decodeExecRankDone(payload)
		if err != nil {
			return err
		}
		// Ownership first: only a lease the named job actually holds gets
		// to spend coordinator cycles decoding a model or a timeline.
		if rr := ident(m.Job); rr != nil {
			sh, err := rr.decodeShard(m, secs)
			if err != nil {
				return fmt.Errorf("rank-done shard rejected: %w", err)
			}
			sp, err := decodeExecSpans(m, spans)
			if err != nil {
				return err
			}
			rr.onRankDone(m, sh, sp)
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
	case tagExecPort:
		m, err := decodeExecPort(payload)
		if err != nil {
			return err
		}
		host, _, err := net.SplitHostPort(w.Addr)
		if err != nil {
			return err
		}
		// Only the host the lease connected from: a lease cannot aim a gang
		// at a third machine.
		c.mu.Lock()
		defer c.mu.Unlock()
		if _, ok := c.workers[w.ID]; !ok {
			return nil // a client, or a worker already gone
		}
		c.ports[w.ID] = net.JoinHostPort(host, strconv.Itoa(m.Port))
		if j := c.owner[w.ID]; j != nil {
			j.remote.portFrom(w.ID)
		}
	}
	return nil
}

// observeEpoch enters one rank's epoch in the job's epoch table and puts
// each verdict it raises on the straggler feed, counted in the coordinator's
// registry and the job's.
func (c *Coordinator) observeEpoch(rr *remoteRun, rank, epoch int, sec float64) {
	j := rr.j
	rr.mu.Lock()
	verdicts := rr.epochs.Observe(j.id, rank, epoch, sec)
	rr.mu.Unlock()
	for _, e := range verdicts {
		c.stragglers.Record(e)
		c.cStragglers.Inc()
		c.gStragglerFactor.Set(e.Factor)
		j.metrics.Counter("cluster_straggler_detections_total", "straggler verdicts for this job").Inc()
		c.logf("cluster: straggler: job %s rank %d epoch %d ran %.3fs vs median %.3fs (%.2fx)",
			e.Job, e.Rank, e.Epoch, e.Sec, e.MedianSec, e.Factor)
	}
}

// awaitRemoteGang blocks until the job's gang satisfies its policy —
// respawn insists on the full requested width before (re)launching, shrink
// proceeds with any survivor, and either policy picks up spares the
// scheduler attached; a mesh job also needs a fresh port from every gang
// worker — or the coordinator closes.
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
		ready := 0 // a mesh member is ready once it has a fresh port
		for _, id := range gang {
			if _, ok := c.ports[id]; ok || !rr.mesh {
				ready++
			}
		}
		c.mu.Unlock()
		if closed {
			return nil, fmt.Errorf("cluster: coordinator closed while job %s awaited a gang", j.id)
		}
		if len(gang) >= need && ready == len(gang) {
			return gang, nil
		}
		c.logf("cluster: job %s waiting for its gang: %d worker(s) needed, %d attached, %d ready", j.id, need, len(gang), ready)
		rr.mu.Lock()
		for rr.events == seen && !rr.closed {
			rr.cond.Wait()
		}
		rr.mu.Unlock()
	}
}

// beginGeneration opens generation state for the given gang and assigns
// every pending shard rank round-robin over it (one rank per worker at
// full width; survivors absorb a dead worker's ranks after a shrink). A mesh
// generation is as wide as its gang and starts every rank from zero.
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
	if rr.mesh {
		rr.width = len(gang)
		rr.doneRank = map[int]*core.ShardResult{}
		rr.spans = map[int]fleet.Rank{}
		rr.msgs, rr.bytes = 0, 0
	}
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

// meshReachable refuses a peer table that mixes loopback hosts with others.
// An executor that joined over loopback listens on loopback, where a peer on
// another host cannot dial it, and every rerun would use the same table.
func meshReachable(mesh []string) error {
	loopback := 0
	for _, addr := range mesh {
		host, _, _ := net.SplitHostPort(addr)
		if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
			loopback++
		}
	}
	if loopback > 0 && loopback < len(mesh) {
		return fmt.Errorf("cluster: mesh peers %v mix loopback and other hosts; executors on the coordinator's host must join it at an address the other hosts reach", mesh)
	}
	return nil
}

// dispatchGeneration launches one generation: a single start frame per
// worker carrying the spec, its ranks and, for RA-CA, their resume
// checkpoints; for a mesh, the peer table of the ports it consumes. There is
// no barrier: a worker that dies before its frame lands and one that dies
// mid-solve are the same event, and the lease reports both. Every live worker
// is sent its frame even when one send fails, so each mesh member whose port
// was consumed ends its run and announces a new one. A peer table that
// meshReachable refuses is an error other than errRegang, and sends nothing.
func (c *Coordinator) dispatchGeneration(j *Job, gang []int, gen int, every int) error {
	rr := j.remote
	spec, resume := j.spec, map[int][]byte(nil)
	var mesh []string
	if rr.mesh {
		c.mu.Lock()
		for _, id := range gang {
			if addr, ok := c.ports[id]; ok {
				mesh = append(mesh, addr)
			}
		}
		if len(mesh) < len(gang) { // a member left since the gang was taken
			c.mu.Unlock()
			return errRegang
		}
		if err := meshReachable(mesh); err != nil {
			c.mu.Unlock()
			return err
		}
		for _, id := range gang {
			delete(c.ports, id)
		}
		c.mu.Unlock()
		spec.P = len(gang)
	}
	rr.mu.Lock()
	if !rr.mesh {
		resume = rr.ckptBlob
	}
	starts := make([][]byte, len(gang))
	for i, id := range gang {
		starts[i] = encodeExecStart(execStart{
			Job: j.id, Gen: gen, Spec: spec, Ranks: rr.assign[id], CheckpointEvery: every, Mesh: mesh,
		}, resume)
	}
	rr.mu.Unlock()
	var err error
	for i, id := range gang {
		if serr := c.reg.Send(id, tagExecStart, starts[i]); serr != nil {
			c.logf("cluster: job %s gen %d: start to worker %d: %v", j.id, gen, id, serr)
			err = errRegang
		}
	}
	return err
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

// runRemoteJob supervises one job end to end on the goroutine schedule
// spawns: gang → start → stream → (re-gang)* → assemble, then publishes
// through finishJob.
func (c *Coordinator) runRemoteJob(j *Job) {
	defer c.wg.Done()
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
		switch err := c.dispatchGeneration(j, genGang, gen, every); {
		case err == nil:
			outcome = c.awaitGeneration(j)
		case err != errRegang: // the gang's peers cannot reach each other
			rr.endGeneration()
			fail("%v", err)
			break supervise
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
			// RA-CA ranks resume from their streamed checkpoints; a mesh
			// generation streams none and reruns from zero.
			regang := "re-ganging from last streamed checkpoints"
			if rr.mesh {
				regang = "re-ganging to rerun the generation from zero"
			}
			c.abortGeneration(j, gen, "worker lost; "+regang)
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
			c.logf("cluster: job %s gen %d aborted (worker lost); %s", j.id, gen, regang)
		}
	}
	res.WallSec = time.Since(start).Seconds()

	if res.Err == "" {
		rr.mu.Lock()
		res.FinalP = rr.width
		res.Messages, res.Bytes = rr.msgs, rr.bytes
		res.Recoveries = rr.recoveries
		res.Grows = rr.grows
		res.JoinedRanks = rr.joined
		res.LostRanks = append([]int(nil), rr.lostRanks...)
		res.Generations = rr.gen
		res.TotalSec = rr.maxVirt
		shards := make(map[int]*core.ShardResult, len(rr.doneRank))
		ranks := make([]*core.ShardResult, rr.width)
		for r, sh := range rr.doneRank {
			if sh.Model != nil {
				shards[r] = sh
			}
			ranks[r] = sh
		}
		res.Iters = core.JobIters(j.params.Method, ranks)
		rr.mu.Unlock()
		set, err := core.AssembleShards(shards, ds.Features())
		if err != nil {
			fail("%v", err)
		} else {
			res.SVs = set.NSV() // counted from the models held, never reported
			if ds.TestX != nil {
				res.Accuracy = set.Accuracy(ds.TestX, ds.TestY)
			}
			res.ModelHash = set.Hash()
		}
	}
	c.finishJob(j, res)
}
