// Package faults is a deterministic fault injector for the in-process
// message-passing runtime. Its ScheduleInjector implements
// mpi.TransportHook, so installing it on a World
// (mpi.World.SetTransportHook) subjects every remote transfer of every
// collective and every training method to planned chaos: message drop,
// delay, duplication, byte corruption, and rank crashes — either at the
// k-th message a rank sends or at training iteration k (via CrashCheck,
// polled by the SMO solvers).
//
// A Schedule is an explicit list of one-shot fault events, built either by
// hand (golden tests), by RandomSchedule (the chaos soak, seeded), or from
// a run report's faults block (replay). Message faults are keyed by the
// sending rank's own send index, so the realized faults depend only on
// (schedule, per-rank message order), not on goroutine interleaving across
// ranks. Each event is consumed exactly once, so a recovered run proceeds
// past the fault — a respawned rank does not crash again at the iteration
// that killed it, the semantics checkpoint/restart needs.
//
// Drops deserve a note: the in-process runtime has no retransmission, so a
// truly dropped message deadlocks the collective waiting for it. A
// scheduled "drop" therefore models drop-plus-retransmit — the frame is
// delivered after retransmitSec of virtual delay, the cost a transport
// timeout and resend would have charged.
package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"casvm/internal/mpi"
	"casvm/internal/trace"
)

// Event records one injected fault, for the report and for assertions.
type Event struct {
	Kind     string // "drop" | "dup" | "corrupt" | "delay" | "crash-send" | "crash-iter"
	Src, Dst int    // Dst is -1 for crash-iter
	Tag      int
	Iter     int // iteration for crash-iter; -1 otherwise
}

func (e Event) String() string {
	if e.Kind == "crash-iter" {
		return fmt.Sprintf("crash-iter rank %d iter %d", e.Src, e.Iter)
	}
	return fmt.Sprintf("%s %d->%d tag %d", e.Kind, e.Src, e.Dst, e.Tag)
}

// ScheduledFault is one planned fault. Rank triggers by sender (message
// faults, keyed by the rank's 1-based remote-send index Send) or by the
// training loop's iteration count (crash-iter, keyed by Iter).
type ScheduledFault struct {
	Kind     string  // one of kinds
	Rank     int     // the faulting rank (the sender for message faults)
	Iter     int     // crash-iter: fires at the first poll with iter ≥ Iter
	Send     int     // message faults: fires at the rank's first remote send with index ≥ Send
	DelaySec float64 // extra virtual latency for "delay" events
}

func (e ScheduledFault) String() string {
	if e.Kind == "crash-iter" {
		return fmt.Sprintf("crash-iter rank %d iter %d", e.Rank, e.Iter)
	}
	return fmt.Sprintf("%s rank %d send #%d", e.Kind, e.Rank, e.Send)
}

// kinds is the fault vocabulary: a lost rank (at an iteration or at a
// send) and the four message perturbations.
var kinds = []string{"crash-iter", "crash-send", "drop", "delay", "dup", "corrupt"}

// retransmitSec is the virtual delay standing in for a dropped-then-
// retransmitted frame (see the package note on drops).
const retransmitSec = 2e-3

// ScheduleOptions shapes RandomSchedule's draw.
type ScheduleOptions struct {
	// Kinds is the event vocabulary to draw from; nil means every kind.
	Kinds []string
	// MaxIter bounds crash-iter trigger iterations (default 64).
	MaxIter int
	// MaxSend bounds message-fault send indices (default 32).
	MaxSend int
	// DelaySec is the virtual latency of delay events (default 1e-3).
	DelaySec float64
	// MaxCrashes caps crash events so a schedule cannot exceed the
	// supervisor's restart budget (default 1).
	MaxCrashes int
}

// RandomSchedule draws n seeded events over p ranks (none when p < 1: there
// is no rank to fault). The same (seed, p, n, opts) always yields the same
// schedule, so a soak failure reproduces from its logged seed alone.
func RandomSchedule(seed int64, p, n int, opts ScheduleOptions) Schedule {
	draw := opts.Kinds
	if draw == nil {
		draw = kinds
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 64
	}
	maxSend := opts.MaxSend
	if maxSend <= 0 {
		maxSend = 32
	}
	delay := opts.DelaySec
	if delay <= 0 {
		delay = 1e-3
	}
	maxCrashes := opts.MaxCrashes
	if maxCrashes <= 0 {
		maxCrashes = 1
	}
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
	s := Schedule{Seed: seed}
	if p < 1 {
		return s
	}
	crashes := 0
	for len(s.Events) < n {
		e := ScheduledFault{
			Kind: draw[rng.Intn(len(draw))],
			Rank: rng.Intn(p),
			Iter: 1 + rng.Intn(maxIter),
			Send: 1 + rng.Intn(maxSend),
		}
		switch e.Kind {
		case "crash-iter", "crash-send":
			if crashes >= maxCrashes {
				continue
			}
			crashes++
		case "delay":
			e.DelaySec = delay
		}
		s.Events = append(s.Events, e)
	}
	return s
}

// Schedule is an explicit fault plan: every event fires at most once.
type Schedule struct {
	Seed   int64
	Events []ScheduledFault
}

// NewSchedule builds the one-shot injector for a schedule. Build a fresh
// injector per run: consumed-event state is not resettable.
func NewSchedule(s Schedule) *ScheduleInjector {
	return &ScheduleInjector{
		sched: s,
		sends: map[int]int{},
		done:  make([]bool, len(s.Events)),
	}
}

// ScheduleFromFaults reconstructs a schedule from a report's faults block,
// so `casvm-train -replay-faults report.json` re-injects the exact
// schedule a failed chaos run recorded. The block is outside input: a kind
// the injector does not know is refused rather than consumed silently.
func ScheduleFromFaults(fi *trace.FaultsInfo) (Schedule, error) {
	s := Schedule{Seed: fi.Seed}
	for i, e := range fi.Schedule {
		if !slices.Contains(kinds, e.Kind) {
			return Schedule{}, fmt.Errorf("faults: schedule event %d has unknown kind %q (want one of %v)", i, e.Kind, kinds)
		}
		s.Events = append(s.Events, ScheduledFault{
			Kind: e.Kind, Rank: e.Rank, Iter: e.Iter, Send: e.Send, DelaySec: e.DelaySec,
		})
	}
	return s, nil
}

// ScheduleInjector applies a Schedule. It implements core.FaultInjector
// (mpi.TransportHook + CrashCheck) and trace.FaultReporter; it is safe for
// concurrent use by every rank goroutine, and its one-shot consumption
// survives world restarts — which is exactly what lets a respawned rank
// run past the iteration that killed it.
type ScheduleInjector struct {
	sched Schedule

	mu     sync.Mutex
	sends  map[int]int // remote sends attempted per rank (cumulative across restarts)
	done   []bool      // consumed flags, parallel to sched.Events
	events []Event     // realized log, in injection order
}

// Intercept implements mpi.TransportHook.
func (in *ScheduleInjector) Intercept(src, dst, tag int, data []byte) mpi.Verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sends[src]++
	sent := in.sends[src]

	var v mpi.Verdict
	for i, e := range in.sched.Events {
		// crash-iter belongs to the CrashCheck poll, not the wire.
		if in.done[i] || e.Rank != src || sent < e.Send || e.Kind == "crash-iter" {
			continue
		}
		in.done[i] = true
		switch e.Kind {
		case "crash-send":
			in.events = append(in.events, Event{Kind: "crash-send", Src: src, Dst: dst, Tag: tag, Iter: -1})
			return mpi.Verdict{CrashErr: &mpi.CrashError{Rank: src, Iter: -1,
				Site: fmt.Sprintf("send #%d to rank %d", sent, dst)}}
		case "drop":
			// Drop-plus-retransmit: the receiver sees the frame after the
			// modeled resend timeout instead of never (see package note).
			in.events = append(in.events, Event{Kind: "drop", Src: src, Dst: dst, Tag: tag, Iter: -1})
			if retransmitSec > v.DelaySec {
				v.DelaySec = retransmitSec
			}
		case "delay":
			in.events = append(in.events, Event{Kind: "delay", Src: src, Dst: dst, Tag: tag, Iter: -1})
			if e.DelaySec > v.DelaySec {
				v.DelaySec = e.DelaySec
			}
		case "dup":
			in.events = append(in.events, Event{Kind: "dup", Src: src, Dst: dst, Tag: tag, Iter: -1})
			v.Duplicates++
		case "corrupt":
			if len(data) == 0 {
				continue
			}
			in.events = append(in.events, Event{Kind: "corrupt", Src: src, Dst: dst, Tag: tag, Iter: -1})
			mutated := v.Payload
			if mutated == nil {
				mutated = append([]byte(nil), data...)
			}
			mutated[e.Send%len(mutated)] ^= 0xFF // deterministic flip position
			v.Payload = mutated
		}
	}
	return v
}

// CrashCheck implements the iteration-crash poll of core.FaultInjector.
// Each crash fires exactly once: after a recovery the respawned rank sails
// past the trigger.
func (in *ScheduleInjector) CrashCheck(rank, iter int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, e := range in.sched.Events {
		if in.done[i] || e.Kind != "crash-iter" || e.Rank != rank || iter < e.Iter {
			continue
		}
		in.done[i] = true
		in.events = append(in.events, Event{Kind: "crash-iter", Src: rank, Dst: -1, Tag: -1, Iter: iter})
		return &mpi.CrashError{Rank: rank, Iter: iter, Site: "training loop"}
	}
	return nil
}

// FaultsInfo implements trace.FaultReporter: the report's faults block
// with both the configured schedule and the realized events. The recovery
// the run used is the trainer's to record, not the schedule's.
func (in *ScheduleInjector) FaultsInfo() *trace.FaultsInfo {
	in.mu.Lock()
	defer in.mu.Unlock()
	fi := &trace.FaultsInfo{Seed: in.sched.Seed}
	for _, e := range in.sched.Events {
		fi.Schedule = append(fi.Schedule, trace.FaultEvent{
			Kind: e.Kind, Rank: e.Rank, Iter: e.Iter, Send: e.Send, DelaySec: e.DelaySec,
		})
	}
	for _, e := range in.events {
		fe := trace.FaultEvent{Kind: e.Kind, Rank: e.Src}
		if e.Kind == "crash-iter" {
			fe.Iter = e.Iter
		} else {
			fe.Dst = e.Dst
		}
		fi.Injected = append(fi.Injected, fe)
	}
	return fi
}
