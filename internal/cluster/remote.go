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
//
// A job's generations live on its Job under the coordinator's one lock,
// c.mu: the supervising goroutine, the membership callbacks and the exec
// frames all read and change them there, and every change wakes the
// supervisor through the job's cond. What can block on a peer or grows with
// a payload — a send, a frame's model and timeline decodes, the trace merge,
// the model's assembly and scoring — runs outside the lock.
package cluster

import (
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math"
	"net"
	"sort"
	"strconv"
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

// workerLost records a generation member's death: its pending ranks go on
// the lost ledger, and the woken supervisor aborts and re-gangs.
func (j *Job) workerLost(id int) {
	ranks, ok := j.assign[id]
	if !j.genActive || !ok {
		return
	}
	j.lost = true
	for _, r := range ranks {
		if j.doneRank[r] == nil {
			j.lostRanks = append(j.lostRanks, r)
		}
	}
}

// portFrom notes a worker's fresh mesh port. From a member of the active
// mesh generation whose rank has not reported, it means that rank's run
// ended without a result — a peer failed, or the mesh never came up — so
// the generation is lost.
func (j *Job) portFrom(id int) {
	if ranks, ok := j.assign[id]; ok && j.mesh && j.genActive && j.doneRank[ranks[0]] == nil {
		j.lost = true
	}
}

// pendingRanks lists ranks without a reported result, sorted.
func (j *Job) pendingRanks() []int {
	var out []int
	for r := 0; r < j.width; r++ {
		if j.doneRank[r] == nil {
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
func (j *Job) onCkpt(m execRank, blob []byte) (epoch int, ended bool) {
	if m.Rank >= j.width || j.doneRank[m.Rank] != nil || m.Iters < j.ckptIters[m.Rank] {
		return 0, false
	}
	every := j.params.Recovery.Cadence()
	epoch, ended = (m.Iters+every-1)/every-1, m.Iters > j.ckptIters[m.Rank]
	j.ckptBlob[m.Rank] = blob
	j.ckptIters[m.Rank] = m.Iters
	j.maxVirt = math.Max(j.maxVirt, j.genBase+m.VirtSec)
	return epoch, ended
}

// decodeShard turns a rank-done frame's sections into a shard result, for a
// job whose ranks number width. A rank holds a model exactly when the method
// trains one per rank, or it is rank 0; the model must decode under the
// job's kernel at the dataset's width and cannot have more support vectors
// than the dataset has rows. It reads only what never changes, so it runs
// without c.mu.
func (j *Job) decodeShard(h execRank, secs [][]byte, width int) (*core.ShardResult, error) {
	method := j.params.Method
	if want := h.Rank == 0 || method.IndependentModels(); want != (len(secs) > 0) {
		return nil, fmt.Errorf("cluster: rank %d of a %s job sent %d model sections", h.Rank, method, len(secs))
	}
	if len(h.Layers) > core.TreeLayers(width) {
		return nil, fmt.Errorf("cluster: rank %d reports %d tree layers at p=%d", h.Rank, len(h.Layers), width)
	}
	sh := &core.ShardResult{Iters: h.Iters, LayerIters: h.Layers}
	if len(secs) == 0 {
		return sh, nil
	}
	m, center, err := model.DecodeShard(secs, j.params.Kernel, j.features)
	if err != nil {
		return nil, err
	}
	if m.NSV() > j.rows {
		return nil, fmt.Errorf("cluster: shard of %d support vectors from a dataset of %d rows", m.NSV(), j.rows)
	}
	sh.Model, sh.Center = m, center
	return sh, nil
}

// onRankDone stores a finished rank, decoded and checked at the trust
// boundary, with its timeline. An RA-CA duplicate from a stale generation is
// ignored — shard solves are deterministic, so the first result is as good
// as any; a mesh rank counts only from the active generation, whose width it
// was run at.
func (j *Job) onRankDone(m execRank, sh *core.ShardResult, sp execSpans) {
	if (j.mesh && (!j.genActive || m.Gen != j.gen)) || m.Rank >= j.width || j.doneRank[m.Rank] != nil {
		return
	}
	if len(sp.Events)+len(sp.Edges) > 0 {
		j.spans[m.Rank] = fleet.Rank(sp)
		j.c.cFleetEvents.Add(int64(len(sp.Events)))
		j.c.cFleetEdges.Add(int64(len(sp.Edges)))
	}
	j.doneRank[m.Rank] = sh
	j.msgs += m.Msgs
	j.bytes += m.Bytes
	delete(j.ckptBlob, m.Rank)
	j.maxVirt = math.Max(j.maxVirt, j.genBase+m.VirtSec)
}

// onFail records a worker-reported solve failure, which fails the job: a
// spec or solver error repeats on any gang.
func (j *Job) onFail(m execFail) {
	if j.genActive && m.Gen == j.gen {
		j.fatal = fmt.Sprintf("rank %d: %s", m.Rank, m.Err)
	}
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
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	p := &RemoteProgress{
		Generation: j.gen,
		Workers:    append([]int(nil), j.genWorkers...),
		CkptIters:  map[int]int{},
		Recoveries: j.recoveries,
		Grows:      j.grows,
	}
	for r, it := range j.ckptIters {
		p.CkptIters[r] = it
	}
	for r := range j.doneRank {
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
	j.c.mu.Lock()
	ranks := make([]fleet.Rank, j.width)
	for r, sp := range j.spans {
		ranks[r] = sp
	}
	shipped := len(j.spans)
	j.c.mu.Unlock()
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

// execFrame routes an executor control frame into the owning job, or records
// a worker's mesh port; the error is a frame refused. Frames from leases the
// job does not own are dropped — a departed worker's late frames carry no
// authority, and neither does the telemetry they carry. Each frame a job
// takes wakes its supervisor.
func (c *Coordinator) execFrame(w tcpmpi.WorkerInfo, tag int, payload []byte) error {
	owned := func(job string) *Job { // with c.mu held
		if j := c.byID[job]; j != nil && c.owner[w.ID] == j {
			return j
		}
		return nil
	}
	switch tag {
	case tagExecCkpt:
		m, blob, err := decodeExecCkpt(payload)
		if err != nil {
			return err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if j := owned(m.Job); j != nil {
			if epoch, ended := j.onCkpt(m, blob); ended {
				c.observeEpoch(j, m.Rank, epoch, m.EpochSec)
			}
			j.cond.Broadcast()
		}
	case tagExecRankDone:
		m, spans, secs, err := decodeExecRankDone(payload)
		if err != nil {
			return err
		}
		// Ownership first: only a lease the named job actually holds gets
		// to spend coordinator cycles decoding a model or a timeline, which
		// it does outside the lock.
		c.mu.Lock()
		j := owned(m.Job)
		width := 0
		if j != nil {
			width = j.width
		}
		c.mu.Unlock()
		if j == nil {
			return nil
		}
		sh, err := j.decodeShard(m, secs, width)
		if err != nil {
			return fmt.Errorf("rank-done shard rejected: %w", err)
		}
		sp, err := decodeExecSpans(m, spans)
		if err != nil {
			return err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		j.onRankDone(m, sh, sp)
		j.cond.Broadcast()
	case tagExecFail:
		m, err := decodeExecFail(payload)
		if err != nil {
			return err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if j := owned(m.Job); j != nil {
			c.logf("cluster: job %s gen %d rank %d failed on lease %d: %s",
				m.Job, m.Gen, m.Rank, w.ID, m.Err)
			j.onFail(m)
			j.cond.Broadcast()
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
			j.portFrom(w.ID)
			j.cond.Broadcast()
		}
	}
	return nil
}

// observeEpoch enters one rank's epoch in the job's epoch table and puts
// each verdict it raises on the straggler feed, counted in the coordinator's
// registry and the job's. Called with c.mu held.
func (c *Coordinator) observeEpoch(j *Job, rank, epoch int, sec float64) {
	for _, e := range j.epochs.Observe(j.id, rank, epoch, sec) {
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
// worker — or the coordinator closes. Called with c.mu held.
func (c *Coordinator) awaitRemoteGang(j *Job) ([]int, error) {
	need := 1
	if j.spec.policy() == core.RecoverRespawn {
		need = j.spec.P
	}
	for !c.closed {
		ready := 0 // a mesh member is ready once it has a fresh port
		for _, id := range j.gang {
			if _, ok := c.ports[id]; ok || !j.mesh {
				ready++
			}
		}
		if len(j.gang) >= need && ready == len(j.gang) {
			return append([]int(nil), j.gang...), nil
		}
		c.logf("cluster: job %s waiting for its gang: %d worker(s) needed, %d attached, %d ready", j.id, need, len(j.gang), ready)
		j.cond.Wait()
	}
	return nil, fmt.Errorf("cluster: coordinator closed while job %s awaited a gang", j.id)
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
// attached to the job and join the next generation that needs them. The
// assignment is never changed once returned, so it is read without c.mu.
func (j *Job) beginGeneration(gang []int) (gen int, genGang []int, assign map[int][]int, pending []int) {
	j.gen++
	j.genActive = true
	j.genBase = j.base
	if j.mesh {
		j.width = len(gang)
		j.doneRank = map[int]*core.ShardResult{}
		j.spans = map[int]fleet.Rank{}
		j.msgs, j.bytes = 0, 0
	}
	pending = j.pendingRanks()
	if len(pending) > 0 && len(gang) > len(pending) {
		gang = gang[:len(pending)]
	}
	j.genWorkers = append([]int(nil), gang...)
	j.assign = map[int][]int{}
	j.lost = false
	for i, r := range pending {
		id := gang[i%len(gang)]
		j.assign[id] = append(j.assign[id], r)
	}
	return j.gen, j.genWorkers, j.assign, pending
}

// endGeneration closes the active generation's bookkeeping.
func (j *Job) endGeneration() {
	j.genActive = false
	j.assign = map[int][]int{}
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
// The frames are encoded and sent without c.mu.
func (c *Coordinator) dispatchGeneration(j *Job, gang []int, gen int, assign map[int][]int, every int) error {
	spec, resume := j.spec, map[int][]byte(nil)
	var mesh []string
	c.mu.Lock()
	if j.mesh {
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
		spec.P = len(gang)
	} else {
		resume = maps.Clone(j.ckptBlob) // a stored blob is never written again
	}
	c.mu.Unlock()
	var err error
	for _, id := range gang {
		start := encodeExecStart(execStart{
			Job: j.id, Gen: gen, Spec: spec, Ranks: assign[id], CheckpointEvery: every, Mesh: mesh,
		}, resume)
		if serr := c.reg.Send(id, tagExecStart, start); serr != nil {
			c.logf("cluster: job %s gen %d: start to worker %d: %v", j.id, gen, id, serr)
			err = errRegang
		}
	}
	return err
}

// awaitGeneration blocks until the active generation resolves and reports
// how. A gang that outgrew the generation only forces a re-spread when a
// worker is carrying more than one pending rank — otherwise the spare
// waits for the next membership event. Called with c.mu held.
func (c *Coordinator) awaitGeneration(j *Job) genOutcome {
	for {
		pending, width := len(j.pendingRanks()), len(j.genWorkers)
		switch {
		case j.fatal != "":
			return genFatal
		case c.closed:
			return genClosed
		// Done outranks lost: a worker dying after its final rank-done
		// frame already delivered everything; re-ganging would price a
		// recovery nothing needs.
		case pending == 0:
			return genDone
		case j.lost:
			return genLost
		case len(j.gang) > width && pending > width:
			return genGrew
		}
		j.cond.Wait()
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
func (j *Job) priceRegang() {
	j.base = math.Max(j.base, j.maxVirt) + core.RestartPenaltySec
}

// runRemoteJob supervises one job end to end on the goroutine schedule
// spawns: gang → start → stream → (re-gang)* → assemble, then publishes
// through finishJob. It holds c.mu except while it sends frames and while it
// assembles and scores the model.
func (c *Coordinator) runRemoteJob(j *Job) {
	defer c.wg.Done()
	res := &JobResult{ID: j.id, Method: j.spec.Method, Dataset: datasetName(j.spec), P: j.spec.P}
	start := time.Now()
	ds := j.ds
	every := j.params.Recovery.Cadence()

	fail := func(format string, args ...any) {
		res.Err = fmt.Sprintf(format, args...)
	}
	c.mu.Lock()
	grewFrom := -1 // the gang a wider re-gang outgrew, until it is dispatched
supervise:
	for {
		gang, err := c.awaitRemoteGang(j)
		if err != nil {
			fail("%v", err)
			break
		}
		if grewFrom >= 0 {
			// Counted from the gang the wider generation is ganged from, so a
			// worker attached after the abort, before this dispatch, counts.
			added := max(len(gang)-grewFrom, 0)
			j.joined += added
			c.logf("cluster: job %s re-gangs wider (+%d worker(s))", j.id, added)
			grewFrom = -1
		}
		gen, genGang, assign, pending := j.beginGeneration(gang)
		if len(pending) == 0 {
			j.endGeneration()
			break // every shard already delivered by an earlier generation
		}
		c.met.Counter("cluster_remote_generations_total",
			"remote-execution generations dispatched (first launches and re-gangs)").Inc()
		c.logf("cluster: job %s gen %d on workers %v (pending ranks %v, assignment %v)",
			j.id, gen, genGang, pending, assign)
		c.mu.Unlock()
		err = c.dispatchGeneration(j, genGang, gen, assign, every)
		c.mu.Lock()
		outcome := genLost
		if err == nil {
			outcome = c.awaitGeneration(j)
		}
		j.endGeneration()
		if err != nil && err != errRegang { // the gang's peers cannot reach each other
			fail("%v", err)
			break
		}
		switch outcome {
		case genDone:
			break supervise
		case genFatal:
			fail("cluster: job %s failed remotely: %s", j.id, j.fatal)
			break supervise
		case genClosed:
			fail("cluster: coordinator closed while job %s ran", j.id)
			break supervise
		case genGrew:
			c.mu.Unlock()
			c.abortGeneration(j, gen, "gang grew; re-spreading ranks")
			if c.afterGrowAbort != nil {
				c.afterGrowAbort(j)
			}
			c.mu.Lock()
			grewFrom = len(gang)
			j.grows++
			j.priceRegang()
			c.cScaleups.Inc()
			j.metrics.Counter("casvm_grows_total", "elastic world scale-ups").Inc()
			c.logf("cluster: job %s gen %d aborted (gang grew)", j.id, gen)
		default: // genLost: a failure to recover from
			// RA-CA ranks resume from their streamed checkpoints; a mesh
			// generation streams none and reruns from zero.
			regang := "re-ganging from last streamed checkpoints"
			if j.mesh {
				regang = "re-ganging to rerun the generation from zero"
			}
			c.mu.Unlock()
			c.abortGeneration(j, gen, "worker lost; "+regang)
			c.mu.Lock()
			if j.recoveries >= core.MaxRestarts {
				fail("cluster: recovery budget exhausted after %d restarts of job %s", j.recoveries, j.id)
				break supervise
			}
			j.recoveries++
			j.priceRegang()
			j.metrics.Counter("casvm_recoveries_total", "supervised crash recoveries").Inc()
			c.logf("cluster: job %s gen %d aborted (worker lost); %s", j.id, gen, regang)
		}
	}
	res.WallSec = time.Since(start).Seconds()
	shards := make(map[int]*core.ShardResult, len(j.doneRank))
	if res.Err == "" {
		res.FinalP = j.width
		res.Messages, res.Bytes = j.msgs, j.bytes
		res.Recoveries = j.recoveries
		res.Grows = j.grows
		res.JoinedRanks = j.joined
		res.LostRanks = append([]int(nil), j.lostRanks...)
		res.Generations = j.gen
		res.TotalSec = j.maxVirt
		ranks := make([]*core.ShardResult, j.width)
		for r, sh := range j.doneRank {
			if sh.Model != nil {
				shards[r] = sh
			}
			ranks[r] = sh
		}
		res.Iters = core.JobIters(j.params.Method, ranks)
	}
	c.mu.Unlock()
	if res.Err == "" {
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
