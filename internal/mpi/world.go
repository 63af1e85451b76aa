// Package mpi is the message-passing substrate standing in for MPI: a
// World of P ranks exchanging tagged byte-slice messages, with the
// collective operations the CA-SVM training methods need (Barrier, Bcast,
// Scatterv, Gatherv, Allgather, Alltoall, Allreduce, Allreduce-with-location)
// implemented once, as tree walks over point-to-point hops, on a narrow link:
// the world's selective-receive mailboxes when every rank is a goroutine of
// this process (Run), or any Link — a TCP mesh — when this process is one
// rank of P (RunLink).
//
// Two things are layered over plain message passing, identically on both:
//
//   - Accounting: every transfer is recorded in a trace.Stats, giving the
//     paper's Fig 8 byte matrices and Table X/XI measured volumes.
//   - Virtual time: each rank carries a clock in seconds. Computation is
//     charged explicitly (Charge/ChargeTime) from flop counts; every
//     message hop charges ts + tw·bytes on the sender and synchronises the
//     receiver's clock with the sender's (over a Link the clock rides in an
//     8-byte frame prefix that is neither counted nor priced). Collectives
//     therefore cost what the α–β model of internal/perfmodel says they
//     should, and scaling experiments do not depend on how many ranks share
//     the host.
package mpi

import (
	"errors"
	"fmt"
	"sync"

	"casvm/internal/perfmodel"
	"casvm/internal/trace"
)

// ErrAborted is delivered (by panic, recovered in Run) to ranks blocked in
// communication when another rank fails, so a single error cannot deadlock
// the world.
var ErrAborted = errors.New("mpi: world aborted")

// CrashError reports a rank deliberately killed — by fault injection or by
// an external failure detector. Callers that support degraded-mode
// completion (the independent-model CA-SVM paths) match it with errors.As
// to distinguish a lost rank from a genuine algorithmic failure.
type CrashError struct {
	Rank int
	Iter int    // training iteration at the crash point (-1 if not iteration-bound)
	Site string // short description of where the crash was injected
}

func (e *CrashError) Error() string {
	if e.Iter >= 0 {
		return fmt.Sprintf("mpi: rank %d crashed at iteration %d (%s)", e.Rank, e.Iter, e.Site)
	}
	return fmt.Sprintf("mpi: rank %d crashed (%s)", e.Rank, e.Site)
}

// Verdict is a transport hook's instruction for one intercepted transfer.
// The zero value delivers the message untouched. There is no drop: a
// message the network loses is retransmitted, which a hook models as a delay
// (internal/faults does).
type Verdict struct {
	// Duplicates delivers this many extra copies after the original.
	Duplicates int
	// DelaySec adds virtual network latency: the receiver's clock
	// synchronises to the sender's clock plus this delay. The sender is
	// not slowed (sends are asynchronous).
	DelaySec float64
	// Payload, when non-nil, replaces the message body (corruption). The
	// hook must not alias the original slice.
	Payload []byte
	// CrashErr, when non-nil, kills the sending rank: the send panics with
	// this error, Run recovers it, and the world aborts.
	CrashErr error
}

// TransportHook observes and perturbs every remote point-to-point transfer
// in the world — the injection point of internal/faults. It is called from
// every rank goroutine concurrently and must be safe for concurrent use.
// Self-sends are not intercepted (they never touch a wire).
type TransportHook interface {
	Intercept(src, dst, tag int, data []byte) Verdict
}

// message is one point-to-point transfer.
type message struct {
	src   int
	tag   int
	data  []byte
	clock float64 // arrival time: sender's post-send clock plus injected delay

	// Causal-trace fields, zero when the sender had no recorder attached.
	edgeID    int64   // flow-edge id from Timeline.NextEdgeID (0 = untraced/self)
	sendClock float64 // sender's virtual clock at send completion (before delay)
	sendNs    int64   // sender's wall clock at send completion
}

// mailbox is one rank's unexpected-message queue with selective receive.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []message
	aborted bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// take blocks until a message matching (src, tag) is available and removes
// it. src == AnySource matches any sender. It panics with ErrAborted when
// the world is shutting down.
func (mb *mailbox) take(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if mb.aborted {
			panic(ErrAborted)
		}
		for i := range mb.queue {
			m := mb.queue[i]
			if (src == AnySource || m.src == src) && m.tag == tag {
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				return m
			}
		}
		mb.cond.Wait()
	}
}

func (mb *mailbox) abort() {
	mb.mu.Lock()
	mb.aborted = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// AnySource matches any sending rank in Recv.
const AnySource = -1

// World is a set of P ranks sharing an interconnect model and statistics.
type World struct {
	p       int
	machine perfmodel.Machine
	stats   *trace.Stats
	boxes   []*mailbox
	seed    int64
	hook    TransportHook
	tl      *trace.Timeline

	base float64 // virtual-time origin of every rank's clock (recovery resume)

	abortOnce   sync.Once
	finalClocks clockBoard
}

// SetBaseClock sets the virtual-time origin of every rank's clock. A
// recovery supervisor uses it to make a restarted world resume where the
// failed one stopped (plus any modeled restart penalty), so the α–β model
// charges recovery like any other cost. Call it before Run.
func (w *World) SetBaseClock(sec float64) { w.base = sec }

// SetTransportHook installs a fault-injection hook intercepting every
// remote transfer. Call it before Run; the hook must be concurrency-safe.
func (w *World) SetTransportHook(h TransportHook) { w.hook = h }

// SetTimeline attaches a span timeline: every collective records a
// per-rank span carrying wall and virtual time, and rank failures record
// instant fault events. Call it before Run with a timeline sized to the
// world; nil (the default) keeps every instrumentation site on its
// zero-cost path.
func (w *World) SetTimeline(tl *trace.Timeline) { w.tl = tl }

// NewWorld creates a world of p ranks with the given machine model and RNG
// seed (each rank derives its own deterministic stream).
func NewWorld(p int, machine perfmodel.Machine, seed int64) *World {
	if p < 1 {
		panic(fmt.Sprintf("mpi: world size %d", p))
	}
	w := &World{
		p:       p,
		machine: machine,
		stats:   trace.NewStats(p),
		boxes:   make([]*mailbox, p),
		seed:    seed,
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

// Stats returns the world's communication statistics. Read it only after
// Run returns.
func (w *World) Stats() *trace.Stats { return w.stats }

func (w *World) abort() {
	w.abortOnce.Do(func() {
		for _, mb := range w.boxes {
			mb.abort()
		}
	})
}

// Run executes f once per rank, each on its own goroutine, and waits for
// all of them. The first non-nil error (or recovered panic) aborts the
// remaining ranks and is returned; secondary ErrAborted errors are
// suppressed.
func (w *World) Run(f func(c *Comm) error) error {
	errs := make([]error, w.p)
	var wg sync.WaitGroup
	for r := 0; r < w.p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = w.runRank(rank, w, f)
		}(r)
	}
	wg.Wait()
	var first error
	for _, e := range errs {
		if e != nil && !errors.Is(e, ErrAborted) {
			first = e
			break
		}
	}
	if first == nil {
		for _, e := range errs {
			if e != nil {
				first = e
				break
			}
		}
	}
	return first
}

// runRank runs f as one rank over wr on the calling goroutine and returns
// its error; a failure (returned or panicked) aborts the world.
func (w *World) runRank(rank int, wr wire, f func(c *Comm) error) (err error) {
	c := &Comm{
		world: w,
		wire:  wr,
		rank:  rank,
		rec:   w.tl.Rank(rank),
		clock: w.base,
	}
	defer func() {
		if rec := recover(); rec != nil {
			// Commit the rank's clock even on the failure path: a
			// recovery supervisor reads MaxClock of an aborted
			// world to price the lost work honestly.
			w.finalClocks.set(rank, c.clock)
			var crash *CrashError
			var link *LinkError
			switch perr, ok := rec.(error); {
			case ok && errors.Is(perr, ErrAborted):
				err = ErrAborted
			case ok && errors.As(perr, &crash):
				// Injected crash: keep the typed error so callers
				// can elect degraded-mode completion.
				err = perr
				w.stats.RecordLost(rank)
				w.tl.Rank(rank).Instant(trace.CatFault, "rank-crashed")
			case ok && errors.As(perr, &link):
				// The transport failed under this rank: keep the typed
				// error so a driver can tell a lost peer from a bug.
				err = perr
				w.stats.RecordLost(rank)
				w.tl.Rank(rank).Instant(trace.CatFault, "link-failed")
			default:
				err = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
				w.stats.RecordLost(rank)
				w.tl.Rank(rank).Instant(trace.CatFault, "rank-panicked")
			}
			w.abort()
		}
	}()
	err = f(c)
	w.finalClocks.set(rank, c.clock)
	if err != nil {
		if !errors.Is(err, ErrAborted) {
			w.stats.RecordLost(rank)
			w.tl.Rank(rank).Instant(trace.CatFault, "rank-failed")
		}
		w.abort()
	}
	return err
}

// MaxClock returns the largest final virtual clock recorded by CommitClock
// across ranks — the simulated parallel runtime of the program.
func (w *World) MaxClock() float64 {
	return w.finalClocks.max()
}

// finalClocks collects each rank's clock at CommitClock time.
type clockBoard struct {
	mu     sync.Mutex
	clocks map[int]float64
}

func (b *clockBoard) set(rank int, v float64) {
	b.mu.Lock()
	if b.clocks == nil {
		b.clocks = make(map[int]float64)
	}
	if v > b.clocks[rank] {
		b.clocks[rank] = v
	}
	b.mu.Unlock()
}

func (b *clockBoard) max() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var m float64
	for _, v := range b.clocks {
		if v > m {
			m = v
		}
	}
	return m
}
