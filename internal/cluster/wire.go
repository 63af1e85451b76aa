package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"casvm/internal/tcpmpi"
)

// Control-frame tags on registration leases. Submissions arrive from
// client leases; results go back on the same lease. Errors ride the
// result frame (JobResult.Err) so a client only ever waits on one tag.
const (
	tagSubmit = 101 // client -> coordinator: JSON JobSpec
	tagResult = 102 // coordinator -> client: JSON JobResult
)

// onFrame handles control frames from lease holders: clients submit jobs,
// executors stream remote-execution frames (checkpoints, finished shards,
// failures) in the 105–112 block, and workers stream fleet
// telemetry (spans, metrics, epoch reports) in the 120–129 block.
func (c *Coordinator) onFrame(w tcpmpi.WorkerInfo, tag int, payload []byte) {
	if c.fleet.HandleFrame(w, tag, payload) {
		return
	}
	switch tag {
	case tagExecCkpt, tagExecRankDone, tagExecFail:
		if err := c.execFrame(w, tag, payload); err != nil {
			c.logf("cluster: lease %d: %v", w.ID, err)
		}
		return
	}
	if tag != tagSubmit {
		c.logf("cluster: ignoring frame tag %d from lease %d", tag, w.ID)
		return
	}
	var spec JobSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		c.replyResult(w.ID, &JobResult{Err: fmt.Sprintf("bad job spec: %v", err)})
		return
	}
	j, err := c.Submit(spec)
	if err != nil {
		c.replyResult(w.ID, &JobResult{ID: spec.ID, Err: err.Error()})
		return
	}
	go func() {
		<-j.Done()
		c.replyResult(w.ID, j.Result())
	}()
}

func (c *Coordinator) replyResult(leaseID int, res *JobResult) {
	b, err := json.Marshal(res)
	if err == nil {
		err = c.reg.Send(leaseID, tagResult, b)
	}
	if err != nil {
		c.logf("cluster: result for lease %d undeliverable: %v", leaseID, err)
	}
}

// SubmitAndWait dials the coordinator at addr as a client, submits the
// spec, and blocks until the result comes back (timeout 0 = block
// indefinitely; the lease still fails fast if the coordinator dies). The
// returned JobResult is non-nil whenever the coordinator answered, even
// when err reports a failed job.
func SubmitAndWait(addr string, spec JobSpec, timeout time.Duration) (*JobResult, error) {
	l, err := tcpmpi.Register(addr, tcpmpi.RegisterOptions{Client: true})
	if err != nil {
		return nil, fmt.Errorf("cluster: register with %s: %w", addr, err)
	}
	defer l.Close()
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := l.Send(tagSubmit, b); err != nil {
		return nil, fmt.Errorf("cluster: submit: %w", err)
	}
	b, err = l.Recv(tagResult, timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: waiting for result: %w", err)
	}
	var res JobResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("cluster: bad result frame: %w", err)
	}
	if res.Err != "" {
		return &res, errors.New(res.Err)
	}
	return &res, nil
}

// RetryConfig tunes SubmitWithRetry's capped exponential backoff.
type RetryConfig struct {
	// Attempts bounds registration/submission tries (0 = 5).
	Attempts int
	// BaseDelay is the first backoff (0 = 100ms); each retry doubles it
	// up to MaxDelay (0 = 2s), with up to 50% uniform jitter on top so
	// simultaneous clients do not re-dial in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter draws the backoff perturbation (nil = seeded from the
	// clock; tests inject a deterministic source).
	Jitter *rand.Rand
	// Logf receives one line per failed attempt (nil = silent).
	Logf func(format string, args ...any)
}

func (r RetryConfig) withDefaults() RetryConfig {
	if r.Attempts == 0 {
		r.Attempts = 5
	}
	if r.BaseDelay == 0 {
		r.BaseDelay = 100 * time.Millisecond
	}
	if r.MaxDelay == 0 {
		r.MaxDelay = 2 * time.Second
	}
	if r.Jitter == nil {
		r.Jitter = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return r
}

// SubmitWithRetry is SubmitAndWait hardened against a coordinator that is
// restarting: registration refusals and transport errors are retried with
// capped exponential backoff plus jitter. A result frame that reports a
// *job* failure is returned immediately — the coordinator answered;
// retrying would rerun a run that already failed on its merits.
//
// Every attempt carries the same idempotency key (spec.SubmitKey, drawn
// from rc.Jitter when the caller left it empty), so a retry after the
// submit frame landed — the coordinator may still be running the first
// job — reattaches to the in-flight job instead of double-running it.
func SubmitWithRetry(addr string, spec JobSpec, timeout time.Duration, rc RetryConfig) (*JobResult, error) {
	rc = rc.withDefaults()
	if spec.SubmitKey == "" {
		spec.SubmitKey = fmt.Sprintf("retry-%016x%016x", rc.Jitter.Uint64(), rc.Jitter.Uint64())
	}
	var lastErr error
	delay := rc.BaseDelay
	for attempt := 1; attempt <= rc.Attempts; attempt++ {
		res, err := SubmitAndWait(addr, spec, timeout)
		if err == nil || res != nil {
			// res != nil means the coordinator answered: the job ran and
			// failed, which no amount of resubmission fixes.
			return res, err
		}
		lastErr = err
		if attempt == rc.Attempts {
			break
		}
		sleep := delay + time.Duration(rc.Jitter.Int63n(int64(delay)/2+1))
		if rc.Logf != nil {
			rc.Logf("cluster: submit attempt %d/%d failed (%v); retrying in %v",
				attempt, rc.Attempts, err, sleep)
		}
		time.Sleep(sleep)
		if delay *= 2; delay > rc.MaxDelay {
			delay = rc.MaxDelay
		}
	}
	return nil, fmt.Errorf("cluster: submit to %s failed after %d attempts: %w", addr, rc.Attempts, lastErr)
}
