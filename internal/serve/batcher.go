package serve

import (
	"fmt"
	"sync"
	"time"

	"casvm/internal/la"
	"casvm/internal/trace"
)

// The micro-batcher is the throughput lever of the serving plane: many
// concurrent requests coalesce into one blocked Set.PredictAll evaluation,
// so the support-vector matrix streams through the kernel tile engine once
// per batch instead of once per request. A batch leaves on the first of
// three rules:
//
//   - full: the pending queries reached MaxBatch (tiles are full,
//     amortisation is maximal);
//   - idle: the queue is empty and no request is arriving — nothing could
//     join the batch, so waiting would buy nothing. A lone request flushes
//     at once;
//   - timer: a request that could join was announced (its body is read and
//     it is being decoded) but has not enqueued within MaxDelay.
//
// "Arriving" is the server's count of requests between announce (body in
// memory, decode about to start) and retire (enqueued, or rejected). The
// loop reads that count before it looks at the queue: a request retires
// only after it enqueued, so a zero count followed by an empty queue means
// no request that had announced is still on its way. Read the other way
// round, a request could enqueue and retire between the two reads and be
// left behind by the batch it was counted for.
//
// A request is an atomic unit: all its queries land in the same flush and
// are therefore evaluated against the same model Snapshot. Batching never
// changes results — PredictAll is bit-identical to per-row Predict no
// matter how requests interleave, which TestBatchEquivalence pins.

// BatcherConfig bounds the coalescing window.
type BatcherConfig struct {
	// MaxBatch flushes when this many queries are pending (≤ 0 selects 256).
	MaxBatch int
	// MaxDelay bounds how long a pending batch waits for announced arrivals
	// to enqueue (≤ 0 selects 2ms). It is not a latency floor: with nothing
	// arriving the batch flushes immediately.
	MaxDelay time.Duration
	// QueueDepth bounds requests waiting to enter a batch (≤ 0 selects 1024).
	QueueDepth int
}

// Defaulted returns cfg with zero fields resolved.
func (cfg BatcherConfig) Defaulted() BatcherConfig {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	return cfg
}

// batchReq is one enqueued request: flattened rows plus the reply channel.
type batchReq struct {
	rows      []float64 // nq × width, row-major
	nq, width int
	decisions bool
	done      chan batchOut
}

// batchOut is the per-request slice of one flush's results.
type batchOut struct {
	labels     []float64
	decisions  []float64
	generation uint64
	batchSize  int
	err        error
}

// batcherMetrics groups the observability handles (all nil-safe).
type batcherMetrics struct {
	batches    *trace.Counter
	flushFull  *trace.Counter
	flushTimer *trace.Counter
	flushIdle  *trace.Counter
	batchSize  *trace.Histogram
	queueDepth *trace.Gauge
}

// arrivals counts the requests that are on their way to a batcher: body
// fully read, being decoded and validated, not yet enqueued. One count serves
// every batcher of a server, because the model a request names is not known
// until it is decoded.
type arrivals struct {
	mu   sync.Mutex
	n    int
	zero chan struct{} // non-nil while n > 0; closed by the retire that reaches zero
}

// announce counts one request in. Every announce is paired with one retire.
func (a *arrivals) announce() {
	a.mu.Lock()
	if a.n == 0 {
		a.zero = make(chan struct{})
	}
	a.n++
	a.mu.Unlock()
}

// retire counts one request out — after it enqueued, or when it was
// rejected — and wakes every batcher waiting on the count once it is zero.
func (a *arrivals) retire() {
	a.mu.Lock()
	a.n--
	if a.n == 0 {
		close(a.zero)
		a.zero = nil
	}
	a.mu.Unlock()
}

// pending returns nil when nothing is arriving, else a channel that closes
// when the count next reaches zero.
func (a *arrivals) pending() <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.zero
}

// unavailableError is a failure of the server's state rather than of the
// request (queue full, batcher shut down): HTTP 503, and a client should
// back off and retry.
type unavailableError string

func (e unavailableError) Error() string { return string(e) }

// Batcher coalesces requests for one model handle. One goroutine owns the
// pending set; flushes run inline in that goroutine (PredictAll itself
// fans out across query blocks on the shared worker pool).
type Batcher struct {
	handle   *Handle
	cfg      BatcherConfig
	m        batcherMetrics
	arriving *arrivals
	reqs     chan *batchReq
	stop     chan struct{}
	done     chan struct{}
}

// newBatcher starts the coalescing loop for h. arriving is the count the
// idle rule consults; callers that never announce see it as always zero.
func newBatcher(h *Handle, cfg BatcherConfig, m batcherMetrics, arriving *arrivals) *Batcher {
	b := &Batcher{
		handle:   h,
		cfg:      cfg.Defaulted(),
		m:        m,
		arriving: arriving,
		reqs:     make(chan *batchReq, cfg.Defaulted().QueueDepth),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// Close flushes the pending batch and stops the loop.
func (b *Batcher) Close() {
	close(b.stop)
	<-b.done
}

// Predict enqueues one validated request and blocks until its batch
// flushes. rows is retained until the flush; callers must not reuse it.
func (b *Batcher) Predict(rows []float64, nq, width int, decisions bool) (batchOut, error) {
	r, err := b.enqueue(rows, nq, width, decisions)
	if err != nil {
		return batchOut{}, err
	}
	return b.await(r)
}

// enqueue hands one validated request to the coalescing loop without
// waiting for its flush.
func (b *Batcher) enqueue(rows []float64, nq, width int, decisions bool) (*batchReq, error) {
	r := &batchReq{rows: rows, nq: nq, width: width, decisions: decisions, done: make(chan batchOut, 1)}
	select {
	case b.reqs <- r:
		return r, nil
	default:
		return nil, unavailableError(fmt.Sprintf("serve: model %q queue full (%d requests pending)", b.handle.Name, cap(b.reqs)))
	}
}

// await blocks until r's batch has flushed.
func (b *Batcher) await(r *batchReq) (batchOut, error) {
	select {
	case out := <-r.done:
		return out, out.err
	case <-b.done:
		return batchOut{}, unavailableError(fmt.Sprintf("serve: batcher for %q shut down", b.handle.Name))
	}
}

// run is the coalescing loop. With nothing pending it blocks for work.
// Holding work, it flushes as soon as the queue is empty and nothing is
// arriving; otherwise it waits for the next enqueue, for the arriving count
// to reach zero, or for MaxDelay — armed at the batch's first wait and
// quenched on its flush — whichever comes first.
func (b *Batcher) run() {
	defer close(b.done)
	var pending []*batchReq
	var pendingQ int
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	flush := func(reason *trace.Counter) {
		if len(pending) == 0 {
			return
		}
		reason.Inc()
		b.flush(pending, pendingQ)
		pending, pendingQ = nil, 0
		b.m.queueDepth.Set(0)
		if armed {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			armed = false
		}
	}
	add := func(r *batchReq) {
		pending = append(pending, r)
		pendingQ += r.nq
		b.m.queueDepth.Set(float64(pendingQ))
		if pendingQ >= b.cfg.MaxBatch {
			flush(b.m.flushFull)
		}
	}
	for {
		// Both stay nil — never ready — while nothing is pending.
		var zero <-chan struct{}
		var expired <-chan time.Time
		if len(pending) > 0 {
			zero = b.arriving.pending() // before the queue: see the package comment
			select {
			case r := <-b.reqs:
				add(r)
				continue
			default:
			}
			if zero == nil {
				flush(b.m.flushIdle)
				continue
			}
			if !armed {
				timer.Reset(b.cfg.MaxDelay)
				armed = true
			}
			expired = timer.C
		}
		select {
		case r := <-b.reqs:
			add(r)
		case <-zero:
		case <-expired:
			flush(b.m.flushTimer)
		case <-b.stop:
			// Drain whatever already queued, then flush the remainder so no
			// caller is left blocked (counted as idle: nothing more can join).
			for {
				select {
				case r := <-b.reqs:
					add(r)
					continue
				default:
				}
				break
			}
			flush(b.m.flushIdle)
			return
		}
	}
}

// flush evaluates one coalesced batch against a single model Snapshot and
// scatters the results back to the per-request reply channels.
func (b *Batcher) flush(pending []*batchReq, total int) {
	snap := b.handle.Snapshot()
	set := snap.Set
	feats := set.Centers.Features()
	b.m.batches.Inc()
	b.m.batchSize.Observe(float64(total))

	// Width mismatches (a request validated against a previous generation,
	// then a reload changed the feature count) fail per-request, never the
	// whole batch.
	live := pending[:0]
	liveQ := 0
	wantDecisions := false
	for _, r := range pending {
		if r.width != feats {
			r.done <- batchOut{err: fmt.Errorf("serve: query width %d, model %q generation %d has %d features",
				r.width, b.handle.Name, snap.Generation, feats)}
			continue
		}
		live = append(live, r)
		liveQ += r.nq
		wantDecisions = wantDecisions || r.decisions
	}
	if liveQ == 0 {
		return
	}
	// A batch of one request is that request's rows, evaluated where they
	// lie; only a real coalescing pays for the concatenated slab.
	rows := live[0].rows
	if len(live) > 1 {
		rows = make([]float64, 0, liveQ*feats)
		for _, r := range live {
			rows = append(rows, r.rows...)
		}
	}
	q := la.NewDense(liveQ, feats, rows)
	var labels, decs []float64
	if wantDecisions {
		labels, decs = set.EvalAll(q)
	} else {
		labels = set.PredictAll(q)
	}
	off := 0
	for _, r := range live {
		out := batchOut{
			labels:     labels[off : off+r.nq : off+r.nq],
			generation: snap.Generation,
			batchSize:  liveQ,
		}
		if r.decisions {
			out.decisions = decs[off : off+r.nq : off+r.nq]
		}
		off += r.nq
		r.done <- out
	}
}
