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
// counts are transport-independent. A Link has no any-source receive;
// RecvFrom(AnySource) over one fails with a *LinkError.
type Link interface {
	Send(dst, tag int, data []byte) error
	Recv(src, tag int) ([]byte, error)
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
	take(self, src, tag int) message
}

func (w *World) put(dst int, m message) { w.boxes[dst].put(m) }

func (w *World) take(self, src, tag int) message { return w.boxes[self].take(src, tag) }

// clockPrefix is the link frame header: the message's virtual arrival time
// (sender's post-send clock plus injected delay) as a little-endian float64.
// Accounted bytes and α–β costs are those of the payload alone, which keeps
// the Table X/XI counts identical on both transports.
const clockPrefix = 8

type linkWire struct{ l Link }

func (lw linkWire) put(dst int, m message) {
	buf := make([]byte, clockPrefix+len(m.data))
	binary.LittleEndian.PutUint64(buf, math.Float64bits(m.clock))
	copy(buf[clockPrefix:], m.data)
	if err := lw.l.Send(dst, m.tag, buf); err != nil {
		panic(&LinkError{Rank: m.src, Op: "send", Peer: dst, Err: err})
	}
}

func (lw linkWire) take(self, src, tag int) message {
	b, err := lw.l.Recv(src, tag)
	if err == nil && len(b) < clockPrefix {
		err = fmt.Errorf("frame of %d bytes is shorter than the %d-byte clock prefix", len(b), clockPrefix)
	}
	if err != nil {
		panic(&LinkError{Rank: self, Op: "recv", Peer: src, Err: err})
	}
	return message{src: src, tag: tag, data: b[clockPrefix:],
		clock: math.Float64frombits(binary.LittleEndian.Uint64(b))}
}

// RunLink runs f as rank `rank` of the world on the calling goroutine, its
// messages carried by l to peers that run the other ranks elsewhere (each in
// its own World of the same size, machine and seed). Errors and panics are
// handled as in Run; a failed link operation returns a *LinkError. The
// world's Stats and MaxClock then hold this rank's share only.
func (w *World) RunLink(rank int, l Link, f func(c *Comm) error) error {
	if rank < 0 || rank >= w.p {
		return fmt.Errorf("mpi: rank %d outside [0,%d)", rank, w.p)
	}
	return w.runRank(rank, linkWire{l}, f)
}
