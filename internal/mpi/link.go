package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Link is the point-to-point transport a Comm runs over when its peers live
// in other processes: tagged, per-(source, tag) FIFO, reliable or failing
// with an error. *tcpmpi.Comm is one. Everything above it — the collectives'
// tree walks, trace.Stats accounting, α–β virtual time, the fault hook — is
// the same code that runs over the in-process mailboxes, so message and byte
// counts are transport-independent.
type Link interface {
	Send(dst, tag int, data []byte) error
	// RecvAt returns the payload and the wall time (unix ns) it arrived: the
	// receive stamp of the message's flow edge, which with the sender's stamp
	// measures its transit, whenever the receiver got round to taking it.
	RecvAt(src, tag int) (data []byte, arrivedNs int64, err error)
}

// LinkError reports a failed Link operation, or a frame from the network too
// short to be one of ours. The rank's Send/Recv panics with it and
// Run/RunLink return it, typed, so a driver can tell a lost peer from an
// algorithmic failure.
type LinkError struct {
	Rank int    // the rank whose operation failed
	Op   string // "send" or "recv"
	Peer int    // the other end
	Err  error
}

func (e *LinkError) Error() string {
	return fmt.Sprintf("mpi: rank %d %s (peer %d): %v", e.Rank, e.Op, e.Peer, e.Err)
}

func (e *LinkError) Unwrap() error { return e.Err }

// wire moves messages for a Comm: the world's mailboxes in-process, a Link
// across processes.
type wire interface {
	put(dst int, m message)
	// take also returns the message's arrival wall time: 0 in-process,
	// where the receive stamp is the take itself.
	take(self, src, tag int) (m message, arrivedNs int64)
}

func (w *World) put(dst int, m message) { w.boxes[dst].put(m) }

func (w *World) take(self, src, tag int) (message, int64) { return w.boxes[self].take(src, tag), 0 }

// linkPrefix precedes every payload mpi sends over a Link: four little-endian
// words, the virtual arrival time (sender's post-send clock plus injected
// delay), the sender's clock and wall time (unix ns) at send completion, and
// the flow-edge id, from which the receiver records the FlowEdge it records
// in-process. Bytes and α–β costs are the payload's alone, which keeps the
// Table X/XI counts identical on both transports.
const linkPrefix = 32

type linkWire struct{ l Link }

func (lw linkWire) put(dst int, m message) {
	buf := make([]byte, linkPrefix+len(m.data))
	le := binary.LittleEndian
	le.PutUint64(buf, math.Float64bits(m.clock))
	le.PutUint64(buf[8:], math.Float64bits(m.sendClock))
	le.PutUint64(buf[16:], uint64(m.sendNs))
	le.PutUint64(buf[24:], uint64(m.edgeID))
	copy(buf[linkPrefix:], m.data)
	if err := lw.l.Send(dst, m.tag, buf); err != nil {
		panic(&LinkError{Rank: m.src, Op: "send", Peer: dst, Err: err})
	}
}

func (lw linkWire) take(self, src, tag int) (message, int64) {
	b, at, err := lw.l.RecvAt(src, tag)
	if err == nil && len(b) < linkPrefix {
		err = fmt.Errorf("frame of %d bytes is shorter than the %d-byte link prefix", len(b), linkPrefix)
	}
	if err != nil {
		panic(&LinkError{Rank: self, Op: "recv", Peer: src, Err: err})
	}
	le := binary.LittleEndian
	return message{src: src, tag: tag, data: b[linkPrefix:],
		clock:     math.Float64frombits(le.Uint64(b)),
		sendClock: math.Float64frombits(le.Uint64(b[8:])),
		sendNs:    int64(le.Uint64(b[16:])),
		edgeID:    int64(le.Uint64(b[24:]))}, at
}

// RunLink runs f as rank `rank` of the world on the calling goroutine, its
// messages carried by l to peers that run the other ranks elsewhere (each in
// its own World of the same size, machine and seed). Errors and panics are
// handled as in Run; a failed link operation returns a *LinkError. The
// world's Stats and MaxClock then hold this rank's share only. The rank's
// flow-edge ids are (rank+1)<<40 | n, so the edges every process of a job
// records stay distinct when their timelines are merged.
func (w *World) RunLink(rank int, l Link, f func(c *Comm) error) error {
	if rank < 0 || rank >= w.p {
		return fmt.Errorf("mpi: rank %d outside [0,%d)", rank, w.p)
	}
	w.edgeBase = int64(rank+1) << 40
	return w.runRank(rank, linkWire{l}, f)
}
