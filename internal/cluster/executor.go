// Worker-side remote executor: the other half of the coordinator's
// generation protocol.
//
// RunExecutor holds a worker lease and serves the exec frame vocabulary. It
// keeps one fresh mesh listener open on the lease connection's local address
// and announces its port. An RA-CA start trains the assigned shard ranks with
// core.RunShard — streaming epoch-boundary checkpoints, each with its epoch's
// wall time, back over the lease as it goes — and needs no other connection. A
// start that carries a peer table dials the generation's tcpmpi mesh on that
// listener and runs its one rank with core.RunRank, the per-rank driver
// in-process worlds call, recording its timeline if Fleet is set; the
// executor then announces a new listener. An abort interrupts in-flight
// solves at the next iteration poll and closes the mesh. Killing the process
// (`kill -9` included) simply stops the lease heartbeats; the coordinator's
// expiry callback then drives shrink/respawn recovery.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"casvm/internal/core"
	"casvm/internal/mpi"
	"casvm/internal/smo"
	"casvm/internal/tcpmpi"
	"casvm/internal/trace"
)

// ExecutorOptions tunes a RunExecutor worker.
type ExecutorOptions struct {
	// Fleet records a mesh rank's timeline — its spans and the flow edges of
	// the messages it received — and ships it in the rank's rank-done frame,
	// for the coordinator's merged trace of the job. casvm-cluster workers
	// always set it; it stays an option because the repository benchmark's
	// fleet.overhead_pct probe (bench/cluster.go) runs with it on and off.
	Fleet bool

	// IterDelay throttles the solver by sleeping this long every
	// iteration poll — tests and demos use it to hold a solve open long
	// enough to kill the process mid-epoch. 0 = full speed.
	IterDelay time.Duration

	// Logf receives one line per generation event (nil = silent).
	Logf func(format string, args ...any)
}

// errGenAborted is what the executor's iteration poll injects into a solve
// whose generation was aborted or whose lease ended.
var errGenAborted = errors.New("cluster: generation aborted")

// genKey names one generation of one job.
type genKey struct {
	job string
	gen int
}

// executor is the per-lease serving state.
type executor struct {
	l    *tcpmpi.Lease
	opts ExecutorOptions
	data datasetMemo     // a re-gang or the next job over the same data builds nothing
	ctx  context.Context // ends with the lease
	wg   sync.WaitGroup  // running generations; RunExecutor returns after them

	mu      sync.Mutex
	ln      net.Listener                  // the announced mesh listener; nil once a generation took it
	running map[genKey]context.CancelFunc // generations still executing here
}

func (e *executor) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// RunExecutor registers with the coordinator at addr as a worker and
// serves remote rank execution until the lease ends (coordinator shutdown
// or revocation) or ctx is cancelled, and returns once its generations have
// stopped. It returns nil on a clean ctx-driven departure — the coordinator
// sees a leave, not an expiry.
func RunExecutor(ctx context.Context, addr string, opts ExecutorOptions) error {
	l, err := tcpmpi.Register(addr, tcpmpi.RegisterOptions{})
	if err != nil {
		return fmt.Errorf("cluster: register with %s: %w", addr, err)
	}
	leaseCtx, cancel := context.WithCancel(ctx)
	context.AfterFunc(leaseCtx, func() { l.Close() })
	e := &executor{l: l, opts: opts, ctx: leaseCtx, running: map[genKey]context.CancelFunc{}}
	defer func() {
		cancel() // first: stops the generations, and no announcement opens a listener after this
		e.wg.Wait()
		e.mu.Lock()
		if e.ln != nil {
			e.ln.Close()
		}
		e.mu.Unlock()
	}()
	e.logf("executor: lease %d with %s", l.ID(), addr)
	e.announce()
	for {
		tag, payload, err := l.RecvAny([]int{tagExecStart, tagExecAbort}, 0)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if lerr := l.Err(); lerr != nil {
				return lerr
			}
			return err
		}
		switch tag {
		case tagExecAbort:
			e.onAbort(payload)
		case tagExecStart:
			m, resume, err := decodeExecStart(payload)
			if err != nil {
				e.logf("executor: %v", err)
				continue
			}
			// Generations run off the serving loop so aborts keep landing.
			gctx, done := e.begin(m)
			e.wg.Add(1)
			if m.Mesh == nil {
				go func() { defer e.wg.Done(); defer done(); e.runShards(gctx, m, resume) }()
				continue
			}
			e.mu.Lock()
			ln := e.ln
			e.ln = nil
			e.mu.Unlock()
			go func() { defer e.wg.Done(); defer done(); e.runMesh(gctx, m, ln) }()
		}
	}
}

// announce opens a fresh mesh listener on the lease connection's local
// address — an interface the coordinator's host reaches — and announces its
// port over the lease.
func (e *executor) announce() {
	host, _, err := net.SplitHostPort(e.l.LocalAddr().String())
	if err != nil {
		e.logf("executor: mesh listener: %v", err)
		return
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		e.logf("executor: mesh listener: %v", err)
		return
	}
	e.mu.Lock()
	if e.ctx.Err() != nil { // the executor is leaving
		e.mu.Unlock()
		ln.Close()
		return
	}
	e.ln = ln
	e.mu.Unlock()
	port := ln.Addr().(*net.TCPAddr).Port
	if err := e.l.Send(tagExecPort, marshalExec(execPort{Port: port})); err != nil {
		e.logf("executor: port announcement: %v", err)
	}
}

// begin registers a generation and returns its context, which an abort of
// the generation or the end of the lease cancels, and the call that
// unregisters it. A start frame is taken ahead of any abort queued behind it
// (RecvAny's tag order), so every abort finds the generations it cancels
// registered.
func (e *executor) begin(m execStart) (context.Context, func()) {
	ctx, cancel := context.WithCancel(e.ctx)
	k := genKey{m.Job, m.Gen}
	e.mu.Lock()
	e.running[k] = cancel
	e.mu.Unlock()
	return ctx, func() {
		e.mu.Lock()
		delete(e.running, k)
		e.mu.Unlock()
		cancel()
	}
}

// onAbort cancels the job's generations up to the aborted one; solves observe
// it at their next iteration poll, and a mesh closes.
func (e *executor) onAbort(payload []byte) {
	m, err := decodeExecAbort(payload)
	if err != nil {
		e.logf("executor: %v", err)
		return
	}
	e.mu.Lock()
	for k, cancel := range e.running {
		if k.job == m.Job && k.gen <= m.Gen {
			cancel()
		}
	}
	e.mu.Unlock()
	e.logf("executor: job %s gen %d aborted: %s", m.Job, m.Gen, m.Reason)
}

// sendFail reports a failure no other gang could fix (bad spec, solver
// error): the coordinator fails the job. A worker that simply dies says
// nothing — its lease ending is the report.
func (e *executor) sendFail(m execStart, rank int, msg string) {
	err := e.l.Send(tagExecFail, marshalExec(execFail{
		Job: m.Job, Gen: m.Gen, Rank: rank, Err: msg,
	}))
	if err != nil {
		e.logf("executor: fail report: %v", err)
	}
}

// poll is the per-iteration interrupt of a generation's solves: the
// throttle, then the generation's cancellation.
func (e *executor) poll(ctx context.Context) error {
	if e.opts.IterDelay > 0 {
		time.Sleep(e.opts.IterDelay)
	}
	if ctx.Err() != nil {
		return errGenAborted
	}
	return nil
}

// genPoll is a generation's poll as a core.FaultInjector: the hook through
// which a mesh or shard rank's training loops are interrupted. Intercept never
// runs: a shard's world installs it as a hook, but RA-CA sends nothing.
type genPoll struct {
	e   *executor
	ctx context.Context
}

func (genPoll) Intercept(int, int, int, []byte) mpi.Verdict { return mpi.Verdict{} }
func (g genPoll) CrashCheck(int, int) error                 { return g.e.poll(g.ctx) }

// runShards executes one RA-CA generation on this worker: train the assigned
// shard ranks in order, each from its resume checkpoint if the start frame
// carried one, streaming checkpoints and finished models back over the lease.
func (e *executor) runShards(ctx context.Context, m execStart, resume map[int]*smo.Checkpoint) {
	if ctx.Err() != nil {
		return
	}
	pr, ds, err := e.data.trainParams(m.Spec)
	if err != nil {
		e.sendFail(m, -1, err.Error())
		return
	}
	pr.Faults = genPoll{e, ctx}
	e.logf("executor: job %s gen %d trains shard ranks %v", m.Job, m.Gen, m.Ranks)

	// virt is this worker's cumulative α–β virtual time within the
	// generation: completed shard solves plus every checkpoint deposit's
	// modeled transport.
	var virt float64
	for _, rank := range m.Ranks {
		if ctx.Err() != nil {
			return
		}
		epochStart := time.Now()
		sink := func(ck *smo.Checkpoint) {
			blob := ck.Encode()
			virt += pr.Machine.PtoP(len(blob))
			frame := encodeExecCkpt(execRank{
				Job: m.Job, Gen: m.Gen, Rank: rank, Iters: ck.Iters, VirtSec: virt,
				EpochSec: time.Since(epochStart).Seconds(),
			}, blob)
			if err := e.l.Send(tagExecCkpt, frame); err != nil {
				e.logf("executor: checkpoint deposit: %v", err)
			}
			epochStart = time.Now()
		}
		sh, err := core.RunShard(ds.X, ds.Y, pr, core.ShardRun{
			Rank: rank, P: m.Spec.P,
			CheckpointEvery: m.CheckpointEvery,
			CheckpointSink:  sink,
			Restore:         resume[rank],
		})
		if err != nil {
			if errors.Is(err, errGenAborted) {
				return // the coordinator already knows why
			}
			e.sendFail(m, rank, err.Error())
			return
		}
		virt += sh.VirtSec
		h := execRank{Job: m.Job, Gen: m.Gen, Rank: rank, Iters: sh.Iters, VirtSec: virt}
		if !e.rankDone(h, sh, nil) {
			return
		}
	}
}

// runMesh executes this worker's rank of a mesh generation: dial the peers on
// the announced listener, train the rank with core.RunRank, and report it. A
// peer's *mpi.LinkError and an abort end the generation here without a
// report; the next announcement tells the coordinator this rank is free.
func (e *executor) runMesh(ctx context.Context, m execStart, ln net.Listener) {
	defer e.announce()
	rank := m.Ranks[0]
	if ln == nil || ctx.Err() != nil {
		if ln != nil {
			ln.Close()
		}
		return
	}
	var tl *trace.Timeline
	if e.opts.Fleet {
		tl = trace.NewTimeline(m.Spec.P)
	}
	comm, err := tcpmpi.DialOptions(rank, m.Mesh, tcpmpi.Options{
		Listener: ln, DialTimeout: e.l.TTL(),
	})
	if err != nil {
		e.logf("executor: job %s gen %d rank %d: %v", m.Job, m.Gen, rank, err)
		return
	}
	defer comm.Close()
	defer context.AfterFunc(ctx, func() { comm.Close() })()
	e.logf("executor: job %s gen %d trains rank %d of a %d-rank mesh", m.Job, m.Gen, rank, m.Spec.P)

	pr, ds, err := e.data.trainParams(m.Spec)
	if err != nil {
		e.sendFail(m, rank, err.Error())
		return
	}
	pr.Faults = genPoll{e, ctx}
	world := mpi.NewWorld(m.Spec.P, pr.Machine, pr.Seed)
	world.SetTimeline(tl)
	var sh *core.ShardResult
	err = world.RunLink(rank, comm, func(c *mpi.Comm) (err error) {
		sh, err = core.RunRank(c, ds.X, ds.Y, pr)
		return err
	})
	var lerr *mpi.LinkError
	switch {
	case errors.Is(err, errGenAborted):
		return
	case errors.As(err, &lerr):
		e.logf("executor: job %s gen %d rank %d: %v", m.Job, m.Gen, rank, err)
		return
	case err != nil:
		e.sendFail(m, rank, err.Error())
		return
	}
	st := world.Stats()
	e.rankDone(execRank{Job: m.Job, Gen: m.Gen, Rank: rank, Iters: sh.Iters, VirtSec: sh.VirtSec,
		Msgs: st.TotalOps(), Bytes: st.TotalBytes(), Layers: sh.LayerIters}, sh, tl)
}

// rankDone reports one finished rank in its rank-done frame: the header, the
// timeline tl recorded (none from a nil tl), and the rank's shard, if it holds
// one. A timeline that would push the frame past maxExecModelBytes is dropped
// with one log line; the rank is reported without it. It reports whether the
// frame went out.
func (e *executor) rankDone(h execRank, sh *core.ShardResult, tl *trace.Timeline) bool {
	spans, err := encodeExecSpans(tl)
	if err != nil {
		e.logf("executor: job %s gen %d rank %d: timeline dropped: %v", h.Job, h.Gen, h.Rank, err)
	}
	frame := encodeExecRankDone(h, spans, sh.Model, sh.Center)
	if len(frame) > maxExecModelBytes && len(spans) > 0 {
		e.logf("executor: job %s gen %d rank %d: timeline of %d bytes dropped: the rank-done frame would exceed %d bytes",
			h.Job, h.Gen, h.Rank, len(spans), maxExecModelBytes)
		frame = encodeExecRankDone(h, nil, sh.Model, sh.Center)
	}
	if err := e.l.Send(tagExecRankDone, frame); err != nil {
		e.logf("executor: rank-done report: %v", err)
		return false
	}
	e.logf("executor: job %s gen %d rank %d done (iters=%d svs=%d)", h.Job, h.Gen, h.Rank, sh.Iters, sh.SVs)
	return true
}
