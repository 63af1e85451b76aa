// Checkpoint/restart.
//
// The in-process runtime recovers from one fault, a lost rank (a
// *mpi.CrashError), by gang restart at the same or a smaller width; growing
// a running job is internal/cluster's. When a rank crashes the world
// aborts, the supervisor in train.go prices the lost work (the failed
// world's MaxClock plus a restart penalty becomes the next attempt's base
// clock), and the whole computation re-runs. Because every attempt is
// deterministic — same seed, same partitioning, same RNG streams — the only
// state worth carrying across attempts is solver progress, held here:
//
//   - Local solves (tree layers, CP/CA shards) checkpoint per (rank, solve
//     sequence): the re-executed attempt reaches the same solve call in the
//     same order and resumes it from the snapshot instead of iterating from
//     zero.
//   - Dis-SMO checkpoints in global row space: each rank deposits its
//     alpha/f block every K iterations, and an epoch is globally consistent
//     once the deposited blocks cover all m rows. Lockstep collectives
//     bound cross-rank skew to one iteration, so the highest covered epoch
//     is a state every surviving rank has passed through. Global row space
//     also makes the checkpoint partition-independent: a shrunk world with
//     fewer, larger contiguous blocks re-slices the same arrays.
//
// Checkpointing is not free in the α–β model: every deposit charges the
// point-to-point cost of shipping the snapshot's bytes off-rank, so the
// recovery overhead the paper's cost model would predict shows up in
// TotalSec like any other communication.
package core

import (
	"sync"

	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
	"casvm/internal/smo"
	"casvm/internal/trace"
)

// RecoveryPolicy selects how Train reacts to a rank crash.
type RecoveryPolicy string

const (
	// RecoverOff (the zero value) fails fast: a rank crash is the run's
	// error.
	RecoverOff RecoveryPolicy = ""
	// RecoverRespawn restarts the world at full width from the last
	// checkpoint. The recovered model is bit-identical to the fault-free
	// run's.
	RecoverRespawn RecoveryPolicy = "respawn"
	// RecoverShrink rebuilds the world without the crashed ranks,
	// re-partitioning their shards onto the survivors, and resumes from the
	// last globally-consistent checkpoint where the method's state is
	// partition-independent (Dis-SMO).
	RecoverShrink RecoveryPolicy = "shrink"
)

// ParseRecoveryPolicy resolves a -recover flag value.
func ParseRecoveryPolicy(s string) (RecoveryPolicy, error) {
	switch s {
	case "", "off":
		return RecoverOff, nil
	case "respawn":
		return RecoverRespawn, nil
	case "shrink":
		return RecoverShrink, nil
	}
	return "", errBadPolicy(s)
}

type errBadPolicy string

func (e errBadPolicy) Error() string {
	return "core: unknown recovery policy \"" + string(e) + "\" (want off, respawn or shrink)"
}

// Recovery configures the checkpoint/restart supervisor.
type Recovery struct {
	Policy RecoveryPolicy
	// CheckpointEvery snapshots solver state every K iterations (0 = 64).
	CheckpointEvery int
}

const (
	// MaxRestarts bounds recovery attempts before giving up.
	MaxRestarts = 3
	// RestartPenaltySec is the modeled virtual-time cost of detecting a
	// failure and relaunching — added to the failed attempt's MaxClock to
	// form the next attempt's base clock (the order of a job relaunch on
	// the paper's clusters).
	RestartPenaltySec = 0.5
)

// Cadence is the checkpoint cadence with its default applied.
func (r Recovery) Cadence() int {
	if r.CheckpointEvery <= 0 {
		return 64
	}
	return r.CheckpointEvery
}

// ckptKey addresses a local-solve checkpoint: which rank, and which solve
// in that rank's deterministic execution order.
type ckptKey struct {
	rank int
	seq  int
}

// disEpoch accumulates one Dis-SMO checkpoint epoch in global row space.
type disEpoch struct {
	alpha []float64
	f     []float64
	rows  int // deposited row coverage; complete when rows == m
}

// ckptStore holds all checkpoints of one supervised Train call. It lives
// outside the world, so it survives aborts and restarts.
type ckptStore struct {
	mu    sync.Mutex
	m     int // global sample count (Dis-SMO epoch width)
	local map[ckptKey]*smo.Checkpoint
	dis   map[int]*disEpoch
	best  int // highest complete Dis-SMO epoch (-1 when none)
}

func newCkptStore(m int) *ckptStore {
	return &ckptStore{m: m, local: map[ckptKey]*smo.Checkpoint{}, dis: map[int]*disEpoch{}, best: -1}
}

// putLocal stores rank's checkpoint for its seq-th local solve. The
// snapshot is already a deep copy (smo.Snapshot), so it is kept as-is.
func (s *ckptStore) putLocal(rank, seq int, ck *smo.Checkpoint) {
	s.mu.Lock()
	s.local[ckptKey{rank, seq}] = ck
	s.mu.Unlock()
}

// getLocal returns the stored checkpoint for (rank, seq), nil when none.
func (s *ckptStore) getLocal(rank, seq int) *smo.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.local[ckptKey{rank, seq}]
}

// dropLocal forgets every local-solve checkpoint. Shrink recovery calls it:
// the re-partitioned shards no longer match any (rank, seq) snapshot.
// Dis-SMO epochs are partition-independent and survive.
func (s *ckptStore) dropLocal() {
	s.mu.Lock()
	s.local = map[ckptKey]*smo.Checkpoint{}
	s.mu.Unlock()
}

// depositDis records one rank's Dis-SMO block for an epoch. rowStart is the
// block's first global row. Once an epoch's deposits cover all m rows it
// becomes the consistent restore point and older epochs are pruned.
func (s *ckptStore) depositDis(epoch, rowStart int, alpha, f []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch <= s.best {
		return // stale deposit from a restarted attempt
	}
	ep := s.dis[epoch]
	if ep == nil {
		ep = &disEpoch{alpha: make([]float64, s.m), f: make([]float64, s.m)}
		s.dis[epoch] = ep
	}
	copy(ep.alpha[rowStart:rowStart+len(alpha)], alpha)
	copy(ep.f[rowStart:rowStart+len(f)], f)
	ep.rows += len(alpha)
	if ep.rows == s.m {
		s.best = epoch
		for e := range s.dis {
			if e < epoch {
				delete(s.dis, e)
			}
		}
	}
}

// consistentDis returns the highest globally-consistent Dis-SMO epoch and
// its full alpha/f arrays (not copies — callers slice, copy-on-restore is
// the solver's job). ok is false when no epoch has completed yet.
func (s *ckptStore) consistentDis() (epoch int, alpha, f []float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.best < 0 {
		return 0, nil, nil, false
	}
	ep := s.dis[s.best]
	return s.best, ep.alpha, ep.f, true
}

// recoveryRuntime is the per-Train handle threaded from the supervisor into
// the method implementations: the store, the cadence, and the observability
// sinks. A nil *recoveryRuntime disables checkpointing everywhere.
type recoveryRuntime struct {
	store   *ckptStore
	every   int
	machine perfmodel.Machine
	tl      *trace.Timeline
	metrics *trace.Registry

	// seq counts local solves per rank within the current attempt. Each
	// index is touched only by its rank's goroutine (and by resetSeqs
	// between attempts, after the world has joined), so no lock is needed.
	seq []int
}

func (rt *recoveryRuntime) resetSeqs(p int) {
	rt.seq = make([]int, p)
}

// nextSeq allocates the rank's next local-solve sequence number.
func (rt *recoveryRuntime) nextSeq(rank int) int {
	n := rt.seq[rank]
	rt.seq[rank]++
	return n
}

// chargeCheckpoint prices one deposit: shipping the snapshot off-rank at
// point-to-point cost, recorded as a checkpoint span and counters.
func (rt *recoveryRuntime) chargeCheckpoint(c *mpi.Comm, bytes int) {
	sp := c.Recorder().BeginVirt(trace.CatCheckpoint, "checkpoint", c.Clock())
	c.ChargeTime(rt.machine.PtoP(bytes))
	c.Recorder().EndVirt(sp, c.Clock())
	if rt.metrics != nil {
		rt.metrics.Counter("casvm_checkpoints_total", "solver state snapshots taken").Inc()
		rt.metrics.Counter("casvm_checkpoint_bytes_total", "serialized checkpoint bytes").Add(int64(bytes))
	}
}

// solverConfigCkpt configures the rank's next local solve: solverConfig plus
// the rank's fault-injection interrupt and observability sinks (no-ops
// without an injector, timeline or registry) and checkpoint/restore wiring.
// It must be called in the same order on every attempt (guaranteed by
// deterministic re-execution) so sequence numbers line up with the stored
// snapshots.
func (p Params) solverConfigCkpt(c *mpi.Comm) smo.Config {
	rank := c.Rank()
	cfg := p.solverConfig()
	if p.Faults != nil {
		cfg.Interrupt = func(iter int) error { return p.Faults.CrashCheck(rank, iter) }
	}
	cfg.Trace = p.Timeline.Rank(rank)
	cfg.Metrics = p.Metrics
	cfg.Telemetry = p.Telemetry
	cfg.TelemetryRank = rank
	if run := p.shard; run != nil {
		// RunShard: the remote executor owns checkpoints and interrupts.
		cfg.Interrupt, cfg.CheckpointEvery = run.Interrupt, run.CheckpointEvery
		cfg.CheckpointSink, cfg.Restore = run.CheckpointSink, run.Restore
		return cfg
	}
	rt := p.rt
	if rt == nil {
		return cfg
	}
	seq := rt.nextSeq(rank)
	cfg.CheckpointEvery = rt.every
	cfg.CheckpointSink = func(ck *smo.Checkpoint) {
		rt.chargeCheckpoint(c, ck.Bytes())
		rt.store.putLocal(rank, seq, ck)
	}
	if ck := rt.store.getLocal(rank, seq); ck != nil {
		cfg.Restore = ck
		if rt.metrics != nil {
			rt.metrics.Counter("casvm_restores_total", "solver resumes from checkpoint").Inc()
		}
	}
	return cfg
}
