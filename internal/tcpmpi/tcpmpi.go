// Package tcpmpi is the TCP transport for genuinely multi-process runs (one
// OS process per rank, possibly on different hosts): a full mesh of
// connections with tagged selective receive, which is an mpi.Link — the
// collectives, message accounting and virtual time of a run over it are
// internal/mpi's own, the same code that runs in-process — and the lease
// registrar the cluster runtime's membership rides on (lease.go). Barrier and
// AllreduceSum remain here as error-returning conveniences over those shared
// tree walks. Mesh peers and leases run on one connection type (link.go).
//
// Wire protocol per frame (little endian):
//
//	int32 tag | uint32 len | len bytes payload
//
// The payload is opaque here: a frame internal/mpi sends starts with its own
// prefix (virtual clocks, wall time and flow-edge id), from which the
// receiving mpi.Comm records the message's causal trace. This package records
// none; it only stamps each mesh frame with the wall time its read loop read
// it, which RecvAt returns as the edge's receive stamp (internal/telemetry/fleet
// reads clock offsets off those edges). A connection carries heartbeats and
// data frames, nothing else.
//
// Connection setup: rank i listens on addrs[i]; every pair (i < j) shares
// one connection dialed by j, which introduces itself with an 8-byte hello
// (rank, flags); the acceptor answers with an 8-byte reply. Every hello, mesh
// or registration, carries the helloHeader8 flag: it says the dialer frames
// with this 8-byte header. A peer that still writes the retired 16-byte
// header (tag, wall clock, length) sends no such flag and is refused at its
// hello, never misparsed. Each peer has exactly one connection for the life
// of the Comm: a hello for a rank that is already connected is refused, so
// once setup is done every hello is.
//
// Failure model: fail-stop, as MPI's is. Every connection, mesh or lease,
// sends heartbeats and fails when its read loop hears nothing for its
// silence budget — four heartbeat intervals on the mesh, the TTL on a lease —
// in both directions. A read error, a write error, or that silence fails a
// mesh peer at once — every pending and later Send or Recv that involves it
// returns an error naming the rank and the cause, which mpi.World.RunLink
// returns as a *mpi.LinkError — and nothing else: a peer that finishes and
// exits early does not poison traffic that does not need it. There is no
// reconnect and no redelivery. The one recovery is checkpoint/restart a
// layer up (core.Recovery in-process, the cluster runtime's re-gang from
// streamed checkpoints across processes), which treats the lost peer as a
// crashed rank. Options.Timeout bounds each Send and Recv, so a peer that is
// alive but never answers cannot hold a survivor forever either.
package tcpmpi

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
)

// DialTimeout is the default bound on connection establishment
// (Options.DialTimeout overrides it).
const DialTimeout = 30 * time.Second

// maxFrame bounds a frame payload; larger length fields mean a corrupt or
// hostile stream.
const maxFrame = 1 << 30

// frameHeaderLen is tag (4) + len (4).
const frameHeaderLen = 8

// hbTag marks heartbeat frames; it lives outside the int32 range user and
// collective tags occupy (they are non-negative). hbTag+1 and hbTag+2 (the
// clock-probe ping and pong) are retired and never reassigned: a peer that
// still sends them is handed to the owner like any unknown tag.
const hbTag = math.MinInt32

// silenceBeats is how many heartbeat intervals a peer may stay silent
// before it fails.
const silenceBeats = 4

// Options tunes a Comm. The zero value gives a 30s dial timeout, 2s
// heartbeats with an 8s silence threshold, and unbounded Recv.
type Options struct {
	// Timeout bounds each Send and Recv call (and, through them, each
	// collective hop). 0 means sends fall back to the silence threshold for
	// their write deadline and receives block until the peer fails or the
	// Comm is closed.
	Timeout time.Duration

	// DialTimeout bounds mesh establishment, including the hello
	// handshake read on accepted connections. 0 means 30s.
	DialTimeout time.Duration

	// HeartbeatInterval is the keepalive period per connection; a peer
	// silent for four intervals fails. 0 means 2s.
	HeartbeatInterval time.Duration

	// Listener, when non-nil, is this rank's already-open mesh listener,
	// which the Comm takes over (and closes on Close). A worker that had to
	// announce its address before dialing hands over the socket it opened
	// instead of closing it and binding the port again, which another
	// process can win. Nil listens on addrs[rank].
	Listener net.Listener
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = DialTimeout
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	return o
}

// newLink wraps one mesh connection: silent past four heartbeat intervals
// fails it, and a write is bounded by Timeout, else by the same silence.
func (o Options) newLink(conn net.Conn) *link {
	silence := silenceBeats * o.HeartbeatInterval
	return &link{conn: conn, silence: silence, wait: cmp.Or(o.Timeout, silence)}
}

// Comm is one process's endpoint in a TCP world.
type Comm struct {
	rank, size int
	addrs      []string
	opt        Options
	ln         net.Listener // nil for size-1 worlds without Options.Listener
	mb         *mailbox     // one source per rank

	mu      sync.Mutex
	peers   []*link               // set once by install; nil until connected
	closed  bool                  // set by Close
	shaking map[net.Conn]struct{} // accepted connections still in the hello handshake
	up      chan struct{}         // one token per installed peer

	done chan struct{}  // closed by Close; stops the heartbeat loop
	wg   sync.WaitGroup // every goroutine the Comm starts; Close waits for it
}

// Dial joins the world with default options. See DialOptions.
func Dial(rank int, addrs []string) (*Comm, error) {
	return DialOptions(rank, addrs, Options{})
}

// DialOptions joins the world: rank r listens on addrs[r], accepts
// connections from higher ranks and dials lower ranks. It blocks until the
// full mesh is up or the dial timeout expires.
func DialOptions(rank int, addrs []string, opt Options) (*Comm, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("tcpmpi: rank %d outside [0,%d)", rank, size)
	}
	c := &Comm{
		rank:    rank,
		size:    size,
		addrs:   append([]string(nil), addrs...),
		opt:     opt.withDefaults(),
		mb:      newMailbox(size),
		peers:   make([]*link, size),
		shaking: map[net.Conn]struct{}{},
		up:      make(chan struct{}, size),
		done:    make(chan struct{}),
	}
	c.ln = opt.Listener
	if size == 1 {
		return c, nil
	}
	if c.ln == nil {
		ln, err := net.Listen("tcp", addrs[rank])
		if err != nil {
			return nil, fmt.Errorf("tcpmpi: rank %d listen %s: %w", rank, addrs[rank], err)
		}
		c.ln = ln
	}
	c.start(c.acceptLoop)

	// Dial every lower rank in the mesh.
	errs := make(chan error, rank)
	for dst := 0; dst < rank; dst++ {
		go func(dst int) { errs <- c.dialPeer(dst) }(dst)
	}
	var err error
	for dst := 0; dst < rank; dst++ {
		if e := <-errs; err == nil {
			err = e
		}
	}
	if err != nil {
		c.Close()
		return nil, err
	}

	// Wait for every peer: the lower ranks just dialed, and every higher
	// rank's hello, delivered by the accept loop.
	timer := time.NewTimer(c.opt.DialTimeout)
	defer timer.Stop()
	for n := 0; n < size-1; n++ {
		select {
		case <-c.up:
		case <-timer.C:
			c.mu.Lock()
			missing := rank + 1
			for missing < size-1 && c.peers[missing] != nil {
				missing++
			}
			c.mu.Unlock()
			c.Close()
			return nil, fmt.Errorf("tcpmpi: rank %d: timed out waiting for hello from rank %d", rank, missing)
		}
	}

	c.start(func() { tick(c.done, c.opt.HeartbeatInterval, c.heartbeat) })
	return c, nil
}

// start runs f on a goroutine Close waits for. On a closed Comm it runs
// nothing and reports false.
func (c *Comm) start(f func()) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		f()
	}()
	return true
}

// helloLen is the dialer's hello: u32 rank | u32 flags. replyLen is the
// acceptor's answer; a mesh reply is reserved (zero), a registration reply
// carries the lease (lease.go).
const (
	helloLen = 8
	replyLen = 8
)

// Hello flag bits. A mesh hello sets helloHeader8 alone; a registration
// hello adds helloRegister or helloClient. A hello without helloHeader8, or
// with an unknown bit — including bit 0, which is retired — is a malformed or
// incompatible-version hello, which the decoder rejects outright.
const (
	// helloRegister marks a worker registering with a cluster Registrar
	// instead of joining a rank mesh: the rank field is ignored, the reply's
	// first word carries the assigned worker id and its second the lease
	// TTL in milliseconds.
	helloRegister = 1 << 1
	// helloClient marks a cluster client (job submitter): registered like a
	// worker but never counted as training capacity.
	helloClient = 1 << 2
	// helloHeader8 says the dialer frames with the 8-byte header (tag, len).
	// It is required: a dialer without it writes 16-byte headers, whose
	// wall-clock word this parser would read as a length.
	helloHeader8 = 1 << 3

	helloKnownFlags = helloRegister | helloClient | helloHeader8
)

// helloMsg is the decoded 8-byte hello.
type helloMsg struct {
	rank  uint32 // dialing rank (mesh) — ignored on register/client hellos
	flags uint32
}

// parseHello decodes and validates a hello. Unknown flag bits and a missing
// helloHeader8 are rejected: a corrupt or version-skewed hello must fail the
// handshake.
func parseHello(b []byte) (helloMsg, error) {
	if len(b) < helloLen {
		return helloMsg{}, fmt.Errorf("tcpmpi: short hello (%d bytes)", len(b))
	}
	h := helloMsg{
		rank:  binary.LittleEndian.Uint32(b[0:4]),
		flags: binary.LittleEndian.Uint32(b[4:8]),
	}
	if h.flags&^uint32(helloKnownFlags) != 0 {
		return helloMsg{}, fmt.Errorf("tcpmpi: hello with unknown flags %#x", h.flags)
	}
	if h.flags&helloHeader8 == 0 {
		return helloMsg{}, errors.New("tcpmpi: hello without the 8-byte frame header flag (a peer of an older wire version)")
	}
	if h.flags&helloRegister != 0 && h.flags&helloClient != 0 {
		return helloMsg{}, errors.New("tcpmpi: hello is both worker and client registration")
	}
	return h, nil
}

// putHello encodes a hello into b (len ≥ helloLen).
func putHello(b []byte, h helloMsg) {
	binary.LittleEndian.PutUint32(b[0:4], h.rank)
	binary.LittleEndian.PutUint32(b[4:8], h.flags)
}

// dialPeer connects to a lower rank, retrying the TCP dial until the dial
// timeout, says hello, waits for the reply and installs the connection.
func (c *Comm) dialPeer(dst int) error {
	deadline := time.Now().Add(c.opt.DialTimeout)
	var conn net.Conn
	var err error
	for {
		conn, err = net.DialTimeout("tcp", c.addrs[dst], time.Second)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("tcpmpi: dial rank %d at %s: %w", dst, c.addrs[dst], err)
	}
	var hello [helloLen]byte
	putHello(hello[:], helloMsg{rank: uint32(c.rank), flags: helloHeader8})
	conn.SetDeadline(deadline)
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return fmt.Errorf("tcpmpi: hello to rank %d: %w", dst, err)
	}
	var reply [replyLen]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		conn.Close()
		return fmt.Errorf("tcpmpi: hello reply from rank %d: %w", dst, err)
	}
	if !c.install(dst, c.opt.newLink(conn)) {
		conn.Close()
		return fmt.Errorf("tcpmpi: rank %d: closed while connecting to rank %d", c.rank, dst)
	}
	return nil
}

// acceptLoop runs until Close, handing each accepted connection to its own
// handshake goroutine so a client that never says hello cannot stall the
// others.
func (c *Comm) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // closed
		}
		c.mu.Lock()
		c.shaking[conn] = struct{}{} // Close closes it if it outlives the Comm
		c.mu.Unlock()
		if !c.start(func() { c.handshake(conn) }) {
			conn.Close()
			return
		}
	}
}

// handshake runs the acceptor side of the hello on one accepted connection
// and installs it, or closes it. Refused: a client silent past the dial
// timeout, a malformed or registration hello, a rank that does not dial us,
// and a rank that is already connected.
func (c *Comm) handshake(conn net.Conn) {
	defer func() {
		c.mu.Lock()
		delete(c.shaking, conn)
		c.mu.Unlock()
	}()
	var buf [helloLen]byte
	conn.SetDeadline(time.Now().Add(c.opt.DialTimeout))
	_, err := io.ReadFull(conn, buf[:])
	h, herr := parseHello(buf[:])
	src := int(h.rank)
	if err != nil || herr != nil || h.flags != helloHeader8 || src <= c.rank || src >= c.size {
		conn.Close()
		return
	}
	// Holding the send lock across install and reply keeps every frame of
	// ours behind the reply on the new connection.
	k := c.opt.newLink(conn)
	k.sendMu.Lock()
	defer k.sendMu.Unlock()
	if !c.install(src, k) {
		conn.Close()
		return
	}
	var reply [replyLen]byte
	if _, err := conn.Write(reply[:]); err != nil {
		c.fail(src, fmt.Errorf("tcpmpi: hello reply to rank %d: %w", src, err))
	}
}

// install makes k src's connection for the life of the Comm and starts its
// reader. It refuses a second connection for src, and any connection once
// the Comm is closed.
func (c *Comm) install(src int, k *link) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.peers[src] != nil {
		return false
	}
	c.peers[src] = k
	c.up <- struct{}{}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.readLoop(src, k)
	}()
	return true
}

// Close tears down all connections, fails blocked receivers, and returns
// once every goroutine the Comm started — accept loop, handshakes, read
// loops and heartbeats — has exited.
func (c *Comm) Close() error {
	closed := errors.New("tcpmpi: closed")
	for src := range c.peers {
		c.mb.fail(src, closed) // first: the read loops' errors below are not causes
	}
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	for conn := range c.shaking {
		conn.Close()
	}
	for _, k := range c.peers {
		if k != nil {
			k.conn.Close()
		}
	}
	c.mu.Unlock()
	if c.ln != nil {
		c.ln.Close()
	}
	c.wg.Wait()
	return nil
}

func (c *Comm) readLoop(src int, k *link) {
	err := k.readLoop(func(tag int, data []byte) {
		c.mb.put(src, message{tag: tag, data: data, at: time.Now().UnixNano()})
	})
	c.fail(src, fmt.Errorf("tcpmpi: read from rank %d: %w", src, err))
}

// heartbeat sends every live peer a heartbeat, each from its own goroutine
// so a peer that stopped reading holds up no other peer's.
func (c *Comm) heartbeat() {
	for r, k := range c.peers { // complete and never replaced once this loop runs
		if k == nil || c.mb.err(r) != nil {
			continue
		}
		c.start(func() {
			if err := k.beat(); err != nil {
				c.fail(r, fmt.Errorf("tcpmpi: heartbeat to rank %d: %w", r, err))
			}
		})
	}
}

// fail marks src dead for good and closes its connection: operations that
// depend on src report err from now on, and only those — a peer that
// finishes and exits early does not poison unrelated traffic. The first
// cause sticks, and Close fails every rank first, so a closed Comm reports
// itself closed.
func (c *Comm) fail(src int, err error) {
	c.mb.fail(src, err)
	c.peers[src].conn.Close() // installed before anything can fail it
}

// Send transmits data to rank dst with the given tag. A write that fails
// fails dst: the error is returned here and by every later operation on dst.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("tcpmpi: send to invalid rank %d", dst)
	}
	if dst == c.rank {
		// Copy: the caller may mutate data after Send returns, and the
		// queued message must not alias it.
		c.mb.put(dst, message{tag: tag, data: append([]byte(nil), data...), at: time.Now().UnixNano()})
		return nil
	}
	if err := c.mb.err(dst); err != nil {
		return err
	}
	// peers is complete before DialOptions returns and never replaced.
	if err := c.peers[dst].write(tag, data); err != nil {
		err = fmt.Errorf("tcpmpi: write to rank %d: %w", dst, err)
		c.fail(dst, err)
		return err
	}
	return nil
}

// Recv blocks until a message with the given tag arrives from src, src
// fails, the Comm closes, or the per-operation deadline (Options.Timeout)
// expires. Messages src sent before it failed are still delivered.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	b, _, err := c.RecvAt(src, tag)
	return b, err
}

// RecvAt is Recv, also returning the wall time (unix ns) the message's frame
// was read off the connection: mpi.Link's receive, whose stamp is the
// receive end of the message's flow edge.
func (c *Comm) RecvAt(src, tag int) ([]byte, int64, error) {
	if src < 0 || src >= c.size {
		return nil, 0, fmt.Errorf("tcpmpi: recv from invalid rank %d", src)
	}
	m, err := c.mb.take(src, []int{tag}, c.opt.Timeout)
	if err == errRecvTimeout {
		return nil, 0, fmt.Errorf("tcpmpi: recv from rank %d tag %d: timeout after %v", src, tag, c.opt.Timeout)
	}
	if err != nil {
		return nil, 0, err
	}
	return m.data, m.at, nil
}

// collective runs one of internal/mpi's collectives over this mesh: the tree
// walks live there, once, for both transports. The throwaway world prices
// nothing (zero machine) and restarts the collective tag sequence, which is
// safe because every rank calls collectives in the same order and the mesh
// is FIFO per (source, tag).
func (c *Comm) collective(f func(m *mpi.Comm)) error {
	w := mpi.NewWorld(c.size, perfmodel.Machine{}, 0)
	return w.RunLink(c.rank, c, func(m *mpi.Comm) error { f(m); return nil })
}

// Barrier blocks until every rank enters it.
func (c *Comm) Barrier() error {
	return c.collective(func(m *mpi.Comm) { m.Barrier() })
}

// AllreduceSum element-wise sums x across ranks in place; every rank
// returns x holding the total.
func (c *Comm) AllreduceSum(x []float64) (sum []float64, err error) {
	err = c.collective(func(m *mpi.Comm) { sum = m.AllreduceSum(x) })
	return sum, err
}
