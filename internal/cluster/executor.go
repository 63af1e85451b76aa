// Worker-side remote executor: the other half of the coordinator's
// generation protocol.
//
// RunExecutor holds a worker lease and serves the exec frame vocabulary:
// start trains the assigned shard ranks with core.RunShard — streaming
// epoch-boundary checkpoints back over the lease as it goes — and abort
// interrupts in-flight solves at the next iteration poll. RA-CA ranks never
// talk to each other, so the lease is the executor's only connection.
// Killing the process (`kill -9` included) simply stops the lease
// heartbeats; the coordinator's expiry callback then drives shrink/respawn
// recovery from the checkpoints this executor already streamed.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"casvm/internal/core"
	"casvm/internal/smo"
	"casvm/internal/tcpmpi"
	"casvm/internal/telemetry/fleet"
)

// ExecutorOptions tunes a RunExecutor worker.
type ExecutorOptions struct {
	// Fleet streams fleet telemetry (hello, epoch reports, metrics) for
	// every shard rank the executor trains, letting the coordinator's
	// collector merge traces across gang generations.
	Fleet bool

	// IterDelay throttles the solver by sleeping this long every
	// iteration poll — tests and demos use it to hold a solve open long
	// enough to kill the process mid-epoch. 0 = full speed.
	IterDelay time.Duration

	// Logf receives one line per generation event (nil = silent).
	Logf func(format string, args ...any)
}

// Sentinel errors the executor's iteration poll injects into a solve.
var (
	errGenAborted = errors.New("cluster: generation aborted by coordinator")
	errLeaseLost  = errors.New("cluster: worker lease ended mid-solve")
)

// executor is the per-lease serving state.
type executor struct {
	l    *tcpmpi.Lease
	opts ExecutorOptions
	data datasetMemo // a re-gang or the next job over the same data builds nothing

	mu      sync.Mutex
	aborted map[string]int // job -> highest aborted generation
}

func (e *executor) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

func (e *executor) abortedGen(job string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.aborted[job]
}

// RunExecutor registers with the coordinator at addr as a worker and
// serves remote rank execution until the lease ends (coordinator shutdown
// or revocation) or ctx is cancelled. It returns nil on a clean ctx-driven
// departure — the coordinator sees a leave, not an expiry.
func RunExecutor(ctx context.Context, addr string, opts ExecutorOptions) error {
	l, err := tcpmpi.Register(addr, tcpmpi.RegisterOptions{})
	if err != nil {
		return fmt.Errorf("cluster: register with %s: %w", addr, err)
	}
	e := &executor{l: l, opts: opts, aborted: map[string]int{}}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
		case <-stop:
		}
	}()
	e.logf("executor: lease %d with %s", l.ID(), addr)
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
			go e.runGeneration(m, resume)
		}
	}
}

// onAbort records the coordinator's cancellation high-water mark; solves
// observe it at their next iteration poll.
func (e *executor) onAbort(payload []byte) {
	m, err := decodeExecAbort(payload)
	if err != nil {
		e.logf("executor: %v", err)
		return
	}
	e.mu.Lock()
	if m.Gen > e.aborted[m.Job] {
		e.aborted[m.Job] = m.Gen
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

// runGeneration executes one generation on this worker: train the assigned
// shard ranks in order, each from its resume checkpoint if the start frame
// carried one, streaming checkpoints and finished models back over the lease.
func (e *executor) runGeneration(m execStart, resume map[int]*smo.Checkpoint) {
	if e.abortedGen(m.Job) >= m.Gen {
		return
	}
	pr, ds, err := e.data.trainParams(m.Spec)
	if err != nil {
		e.sendFail(m, -1, err.Error())
		return
	}
	e.logf("executor: job %s gen %d trains shard ranks %v", m.Job, m.Gen, m.Ranks)

	// virt is this worker's cumulative α–β virtual time within the
	// generation: completed shard solves plus every checkpoint deposit's
	// modeled transport.
	var virt float64
	for _, rank := range m.Ranks {
		if e.abortedGen(m.Job) >= m.Gen {
			return
		}
		var rep *fleet.Reporter
		if e.opts.Fleet {
			if rep, err = fleet.NewReporter(e.l, m.Job, rank, m.Spec.P); err != nil {
				e.logf("executor: fleet hello: %v", err)
			}
		}
		epoch := 0
		epochStart := time.Now()
		sink := func(ck *smo.Checkpoint) {
			blob := ck.Encode()
			virt += pr.Machine.PtoP(len(blob))
			frame := encodeExecCkpt(execRank{
				Job: m.Job, Gen: m.Gen, Rank: rank, Iters: ck.Iters, VirtSec: virt,
			}, blob)
			if err := e.l.Send(tagExecCkpt, frame); err != nil {
				e.logf("executor: checkpoint deposit: %v", err)
			}
			if rep != nil {
				rep.ReportEpoch(epoch, time.Since(epochStart))
			}
			epoch++
			epochStart = time.Now()
		}
		interrupt := func(iter int) error {
			if e.opts.IterDelay > 0 {
				time.Sleep(e.opts.IterDelay)
			}
			if e.abortedGen(m.Job) >= m.Gen {
				return errGenAborted
			}
			select {
			case <-e.l.Done():
				return errLeaseLost
			default:
				return nil
			}
		}
		sh, err := core.RunShard(ds.X, ds.Y, pr, core.ShardRun{
			Rank: rank, P: m.Spec.P,
			CheckpointEvery: m.CheckpointEvery,
			CheckpointSink:  sink,
			Restore:         resume[rank],
			Interrupt:       interrupt,
		})
		if err != nil {
			if errors.Is(err, errGenAborted) || errors.Is(err, errLeaseLost) {
				return // the coordinator already knows why
			}
			e.sendFail(m, rank, err.Error())
			return
		}
		virt += sh.VirtSec
		done := encodeExecRankDone(execRank{
			Job: m.Job, Gen: m.Gen, Rank: rank, Iters: sh.Iters, VirtSec: virt,
		}, sh.Model, sh.Center)
		if err := e.l.Send(tagExecRankDone, done); err != nil {
			e.logf("executor: rank-done report: %v", err)
			return
		}
		if rep != nil {
			rep.ShipMetrics(nil)
			rep.Goodbye()
		}
		e.logf("executor: job %s gen %d shard rank %d done (iters=%d svs=%d)",
			m.Job, m.Gen, rank, sh.Iters, sh.SVs)
	}
}
