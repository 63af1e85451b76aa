package tcpmpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// link is one framed connection: the one connection type under a Comm's
// peers, a Registrar's leases and a worker's Lease. Frames go out whole under
// one send lock with a write deadline. The read loop arms a read deadline of
// the silence budget before every frame, so a peer that sends nothing — not
// even a heartbeat — for that long fails the link from its own read loop;
// there is no other silence detector. A failed write leaves a partial frame
// behind, so the owner closes the connection on any write error.
type link struct {
	conn    net.Conn
	silence time.Duration // read deadline per frame
	wait    time.Duration // write deadline per frame
	sendMu  sync.Mutex
}

// write sends one frame (header + payload).
func (k *link) write(tag int, data []byte) error {
	buf := make([]byte, frameHeaderLen+len(data))
	putFrameHeader(buf, tag, len(data))
	copy(buf[frameHeaderLen:], data)
	k.sendMu.Lock()
	defer k.sendMu.Unlock()
	return k.send(buf)
}

// send writes buf with sendMu held.
func (k *link) send(buf []byte) error {
	k.conn.SetWriteDeadline(time.Now().Add(k.wait))
	_, err := k.conn.Write(buf)
	return err
}

// beat sends a heartbeat unless a frame is already going out: a heartbeat
// never queues behind a frame.
func (k *link) beat() error {
	if !k.sendMu.TryLock() {
		return nil
	}
	defer k.sendMu.Unlock()
	var hb [frameHeaderLen]byte
	putFrameHeader(hb[:], hbTag, 0)
	return k.send(hb[:])
}

// readLoop reads frames until the connection fails or the peer stays silent
// past the budget, and returns why. Heartbeats are dropped and every other
// frame goes to deliver; the loop writes nothing.
func (k *link) readLoop(deliver func(tag int, payload []byte)) error {
	for {
		k.conn.SetReadDeadline(time.Now().Add(k.silence))
		tag, payload, err := readFrame(k.conn)
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			return fmt.Errorf("silent for %v", k.silence)
		case err != nil:
			return err
		case tag != hbTag:
			deliver(tag, payload)
		}
	}
}

// readFrame reads one complete frame from r.
func readFrame(r io.Reader) (tag int, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	var n uint32
	if tag, n, err = parseFrameHeader(hdr[:]); err != nil {
		return 0, nil, err
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return tag, payload, nil
}

// parseFrameHeader decodes one 8-byte frame header, rejecting oversized
// payload lengths.
func parseFrameHeader(hdr []byte) (tag int, n uint32, err error) {
	if len(hdr) < frameHeaderLen {
		return 0, 0, fmt.Errorf("tcpmpi: short frame header (%d bytes)", len(hdr))
	}
	tag = int(int32(binary.LittleEndian.Uint32(hdr[:4])))
	n = binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrame {
		return 0, 0, fmt.Errorf("tcpmpi: oversized frame (%d bytes)", n)
	}
	return tag, n, nil
}

// putFrameHeader encodes a frame header into hdr (len ≥ frameHeaderLen).
func putFrameHeader(hdr []byte, tag int, n int) {
	binary.LittleEndian.PutUint32(hdr[:4], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n))
}

// tick calls f every interval until done closes. Each owner sends its
// heartbeats from one tick.
func tick(done <-chan struct{}, every time.Duration, f func()) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			f()
		}
	}
}

type message struct {
	tag  int
	data []byte
	at   int64 // wall time (unix ns) a mesh frame was read off its connection
}

// mailbox is the selective receive shared by Comm.Recv and Lease.RecvAny:
// one FIFO queue per source, searched by tag, and each source's failure.
// Frames a source delivered before it failed are still received.
type mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	queues [][]message
	failed []error // per source; the first cause sticks
}

// errRecvTimeout is take's timeout; callers name what they waited for.
var errRecvTimeout = errors.New("timeout")

func newMailbox(sources int) *mailbox {
	mb := &mailbox{queues: make([][]message, sources), failed: make([]error, sources)}
	mb.cond.L = &mb.mu
	return mb
}

func (mb *mailbox) put(src int, m message) {
	mb.mu.Lock()
	mb.queues[src] = append(mb.queues[src], m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// fail ends src with err unless it has already ended.
func (mb *mailbox) fail(src int, err error) {
	mb.mu.Lock()
	if mb.failed[src] == nil {
		mb.failed[src] = err
	}
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// err reports why src can deliver nothing more (nil while it can).
func (mb *mailbox) err(src int) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.failed[src]
}

// take blocks until a message from src carrying any of tags is queued and
// removes it — the earliest-listed tag wins, FIFO within a tag — or src
// ends, or timeout (0 = none) passes, which returns errRecvTimeout.
func (mb *mailbox) take(src int, tags []int, timeout time.Duration) (message, error) {
	var expired *bool // set under mu when the timeout fires; nil without one
	if timeout > 0 {
		// Broadcast under mu: a bare Broadcast could land between the
		// expired check below and the Wait, and the receive would then
		// outlive its timeout.
		fired := new(bool)
		timer := time.AfterFunc(timeout, func() {
			mb.mu.Lock()
			defer mb.mu.Unlock()
			*fired = true
			mb.cond.Broadcast()
		})
		defer timer.Stop()
		expired = fired
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		q := mb.queues[src]
		for _, tag := range tags {
			for i := range q {
				if q[i].tag == tag {
					m := q[i]
					copy(q[i:], q[i+1:])
					q[len(q)-1] = message{} // drop the tail's hold on a payload
					mb.queues[src] = q[:len(q)-1]
					return m, nil
				}
			}
		}
		if mb.failed[src] != nil {
			return message{}, mb.failed[src]
		}
		if expired != nil && *expired {
			return message{}, errRecvTimeout
		}
		mb.cond.Wait()
	}
}
