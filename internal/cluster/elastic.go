package cluster

import (
	"sync"
	"time"

	"casvm/internal/mpi"
)

// elasticInjector translates cluster membership events into the fault
// machinery a training run already understands. It implements
// core.FaultInjector (a lease expiry becomes a rank crash at the next
// iteration poll) and core.ElasticSource (a worker joining mid-run becomes
// a scale-up request consumed at the next checkpoint epoch boundary).
//
// Workers are capacity tokens — the training world itself is modeled
// in-process — so the injector does not track which worker backs which
// rank. A death always fells the highest live rank and a join always
// appends new ranks, which keeps the coordinator's width accounting in
// lock-step with the recovery supervisor's re-partitioning and makes the
// injected fault sequence deterministic for a given membership-event
// order. Dis-SMO's trajectory is partition-independent, so which rank
// falls does not change the model it converges to.
type elasticInjector struct {
	mu     sync.Mutex
	width  int  // ranks in the current world, mirroring the supervisor
	shrink bool // shrink policy: a consumed kill narrows the world

	kills int // worker deaths not yet injected
	joins int // joined workers not yet offered as new ranks

	iters  int // rank-0 CrashCheck polls observed — a progress gauge
	killed int // kills consumed
	grown  int // join ranks consumed

	// throttle delays rank 0 by this much per iteration poll. Tests use
	// it to hold a run open long enough to drive membership churn
	// through deterministic checkpoints; production jobs leave it zero.
	throttle time.Duration
}

func newElasticInjector(width int, shrink bool) *elasticInjector {
	return &elasticInjector{width: width, shrink: shrink}
}

// Intercept passes every message through untouched: the cluster injects
// membership faults at iteration boundaries, never on the wire.
func (in *elasticInjector) Intercept(src, dst, tag int, data []byte) mpi.Verdict {
	return mpi.Verdict{}
}

// kill records one worker death for injection at the next iteration poll.
func (in *elasticInjector) kill() {
	in.mu.Lock()
	in.kills++
	in.mu.Unlock()
}

// addJoin records n joined workers for the next epoch-boundary JoinCheck.
func (in *elasticInjector) addJoin(n int) {
	in.mu.Lock()
	in.joins += n
	in.mu.Unlock()
}

// CrashCheck is polled by every rank each training iteration. A pending
// worker death is consumed by the current highest rank, which then crashes
// exactly as a schedule-driven "leave" would — the recovery supervisor
// sees an ordinary lease-expired CrashError and applies its policy.
func (in *elasticInjector) CrashCheck(rank, iter int) error {
	in.mu.Lock()
	if rank == 0 {
		in.iters++
	}
	th := in.throttle
	var err error
	if in.kills > 0 && rank == in.width-1 {
		in.kills--
		in.killed++
		if in.shrink {
			in.width--
		}
		err = &mpi.CrashError{Rank: rank, Iter: iter, Site: "lease expired"}
	}
	in.mu.Unlock()
	if th > 0 && rank == 0 {
		time.Sleep(th)
	}
	return err
}

// JoinCheck is polled at checkpoint epoch boundaries. It hands all pending
// joined workers to the supervisor at once, which widens the world by that
// many ranks before the next epoch.
func (in *elasticInjector) JoinCheck(iter int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.joins
	if n > 0 {
		in.joins = 0
		in.width += n
		in.grown += n
	}
	return n
}
