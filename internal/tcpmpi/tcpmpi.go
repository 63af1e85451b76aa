// Package tcpmpi is the TCP transport for genuinely multi-process runs (one
// OS process per rank, possibly on different hosts): a full mesh of
// connections with tagged selective receive, which is an mpi.Link — the
// collectives, message accounting and virtual time of a run over it are
// internal/mpi's own, the same code that runs in-process — and the lease
// registrar the cluster runtime's membership rides on (lease.go). Barrier and
// AllreduceSum remain here as error-returning conveniences over those shared
// tree walks.
//
// Wire protocol per frame (little endian):
//
//	int32 tag | uint32 seq | int64 sendNs | uint32 len | len bytes payload
//
// seq is a per-direction data-frame counter (1, 2, …) that survives
// reconnects, letting the receiver drop frames replayed by a send retry.
// seq 0 marks control frames (heartbeats), which are never deduplicated.
// sendNs is the sender's wall clock (unix nanoseconds) at Send time; with
// Options.Timeline set, the receiver records a cross-process flow edge
// (send→recv, bytes, wall timestamps) per delivered data frame, matching
// the causal trace internal/mpi records for simulated worlds. It is 0 on
// control frames and purely observational otherwise.
//
// Connection setup: rank i listens on addrs[i]; every pair (i < j) shares
// one connection dialed by j, which introduces itself with a 12-byte hello
// (rank, the highest data seq it has received from the acceptor, flags);
// the acceptor answers with an 8-byte reply carrying its own received seq.
// The exchanged sequence numbers make every (re)connection a resume
// handshake: each side replays buffered sent frames the other has not seen
// (bounded by Options.ReplayWindow), and the receiver's seq dedup turns the
// at-least-once replay into exactly-once delivery. Hello flag bit 0 marks a
// fresh incarnation — a dialer process connecting to this peer for the
// first time (e.g. a respawned worker); the acceptor then resets its
// per-peer sequence state so the new process's numbering starts clean.
//
// Fault tolerance: every connection carries periodic heartbeat frames, so
// a silently dead peer is detected within a bounded interval
// (Options.HeartbeatTimeout). A broken connection is re-established by the
// original dialer (higher rank) with capped exponential backoff plus
// jitter (Options.ReconnectAttempts/ReconnectBackoff/ReconnectBackoffMax)
// while the listener side waits out the dialer's budget — only then is the
// peer declared dead. Sends are retried with exponential backoff across
// the reconnect, and per-operation deadlines (Options.Timeout) bound how
// long Send/Recv can block. A peer that re-dials after being declared dead
// is resurrected (the death mark clears on the fresh connection), which is
// what lets an elastic supervisor re-spawn a lost worker process.
package tcpmpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
	"casvm/internal/trace"
)

// DialTimeout is the default bound on connection establishment
// (Options.DialTimeout overrides it).
const DialTimeout = 30 * time.Second

// maxFrame bounds a frame payload; larger length fields mean a corrupt or
// hostile stream.
const maxFrame = 1 << 30

// frameHeaderLen is tag (4) + seq (4) + sendNs (8) + len (4).
const frameHeaderLen = 20

// hbTag marks heartbeat frames; it lives outside the int32 range user and
// collective tags occupy (they are non-negative).
const hbTag = math.MinInt32

// Options tunes the failure-handling behaviour of a Comm. The zero value
// gives 30s dial timeout, 2s heartbeats with 8s silence threshold, two
// send retries starting at 50ms backoff, and unbounded Recv.
type Options struct {
	// Timeout bounds each Send and Recv call (and, through them, each
	// collective hop). 0 means sends fall back to HeartbeatTimeout for
	// their write deadline and receives block until the peer is declared
	// dead or the Comm is closed.
	Timeout time.Duration

	// DialTimeout bounds mesh establishment, including the hello
	// handshake read on accepted connections. 0 means 30s.
	DialTimeout time.Duration

	// HeartbeatInterval is the keepalive period per connection. 0 means
	// 2s; negative disables heartbeats (and silent-peer detection).
	HeartbeatInterval time.Duration

	// HeartbeatTimeout is how long a peer may stay silent before it is
	// presumed dead and recovery starts. 0 means 4× the interval. It
	// also bounds how long the listener side waits for a reconnect.
	HeartbeatTimeout time.Duration

	// Retries is how many times a failed send is retried (across a
	// reconnect) before the error is returned. 0 means 2; negative
	// disables retries.
	Retries int

	// RetryBackoff is the initial retry delay, doubled per attempt.
	// 0 means 50ms.
	RetryBackoff time.Duration

	// DisableReconnect declares a rank dead on the first connection
	// failure instead of attempting any reconnects.
	DisableReconnect bool

	// ReconnectAttempts is how many times the dialer side re-dials a
	// broken connection before declaring the peer dead. 0 means 4.
	ReconnectAttempts int

	// ReconnectBackoff is the delay before the second reconnect attempt,
	// doubled per attempt up to ReconnectBackoffMax, with up to 50%
	// additive jitter so restarted fleets do not re-dial in lockstep.
	// 0 means 100ms.
	ReconnectBackoff time.Duration

	// ReconnectBackoffMax caps the exponential reconnect backoff.
	// 0 means 2s.
	ReconnectBackoffMax time.Duration

	// ReplayWindow is how many sent data frames each peer connection
	// retains for the resume handshake: on reconnect, frames the other
	// side has not acknowledged receiving are replayed (receiver-side seq
	// dedup keeps delivery exactly-once). 0 means 64; negative disables
	// replay (reconnects resume without redelivery).
	ReplayWindow int

	// Listener, when non-nil, is this rank's already-open mesh listener,
	// which the Comm takes over (and closes on Close). A worker that had to
	// announce its address before dialing hands over the socket it opened
	// instead of closing it and binding the port again, which another
	// process can win. Nil listens on addrs[rank].
	Listener net.Listener

	// Metrics, when non-nil, receives transport health counters and the
	// heartbeat-gap histogram (time between keepalives actually observed
	// per peer — the silence detector's input). Nil records nothing and
	// keeps the hot paths allocation-free.
	Metrics *trace.Registry

	// Timeline, when non-nil, records this rank's side of the causal
	// trace: one flow edge per delivered data frame (edge ids are
	// synthesized from (src, seq), so they are unique within the receiving
	// process), carrying wall timestamps only. Collective spans come from
	// the mpi world running over this Comm — attach the same timeline to
	// it; Barrier and AllreduceSum here do. Nil keeps every path
	// record-free.
	Timeline *trace.Timeline
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = DialTimeout
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		if o.HeartbeatInterval > 0 {
			o.HeartbeatTimeout = 4 * o.HeartbeatInterval
		} else {
			o.HeartbeatTimeout = 8 * time.Second
		}
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.ReconnectAttempts <= 0 {
		o.ReconnectAttempts = 4
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 100 * time.Millisecond
	}
	if o.ReconnectBackoffMax <= 0 {
		o.ReconnectBackoffMax = 2 * time.Second
	}
	if o.ReplayWindow == 0 {
		o.ReplayWindow = 64
	}
	return o
}

// reconnectBudget bounds how long the listener side waits for the dialer's
// reconnect attempts before declaring the peer dead: the silence-detection
// window plus headroom for every backed-off dial.
func (o Options) reconnectBudget() time.Duration {
	return o.HeartbeatTimeout +
		time.Duration(o.ReconnectAttempts)*(o.ReconnectBackoffMax+time.Second)
}

// writeDeadline returns the deadline for one frame write (zero time = none).
func (o Options) writeDeadline() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	if o.HeartbeatInterval > 0 {
		return o.HeartbeatTimeout
	}
	return 0
}

// sentFrame is one retained data frame in a peer's replay ring.
type sentFrame struct {
	seq    uint32
	tag    int
	sendNs int64
	data   []byte
}

// peer is the connection state for one remote rank.
type peer struct {
	mu        sync.Mutex
	conn      net.Conn // nil until connected
	gen       int      // bumped on every (re)connection
	broken    bool     // current conn failed; recovery pending or done
	replaying bool     // a resume handshake owns the conn until its replay drains
	lastSeen  time.Time
	recvSeq   uint32 // highest data seq received (dedup across reconnects)

	sendMu      sync.Mutex  // serializes whole send operations, incl. retries
	sendSeq     uint32      // data frames sent (guarded by sendMu)
	ring        []sentFrame // recent data frames for resume replay (guarded by sendMu)
	replayedSeq uint32      // highest seq redelivered by a resume handshake (guarded by sendMu)
}

// remember appends a sent data frame to the replay ring, bounded by the
// configured window. Caller holds sendMu.
func (p *peer) remember(f sentFrame, window int) {
	if window <= 0 {
		return
	}
	p.ring = append(p.ring, f)
	if len(p.ring) > window {
		copy(p.ring, p.ring[len(p.ring)-window:])
		p.ring = p.ring[:window]
	}
}

func (p *peer) touch() {
	p.mu.Lock()
	p.lastSeen = time.Now()
	p.mu.Unlock()
}

// Comm is one process's endpoint in a TCP world.
type Comm struct {
	rank, size int
	addrs      []string
	opt        Options
	peers      []*peer
	ln         net.Listener // nil for size-1 worlds without Options.Listener

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[int][]message // per-source unexpected-message queues
	dead   map[int]error     // per-source connection failures
	closed error

	done     chan struct{} // closed by Close; stops background goroutines
	doneOnce sync.Once

	collSeq int

	// Metric handles resolved once at Dial; all nil (no-op) without a
	// registry in Options.Metrics.
	mHBGap         *trace.Histogram // observed gap between keepalives, seconds
	mReconnects    *trace.Counter   // successful connection replacements
	mReconnTries   *trace.Counter   // reconnect dial attempts (incl. failures)
	mReconnBackoff *trace.Counter   // milliseconds slept in reconnect backoff
	mRetries       *trace.Counter   // send attempts that had to be retried
	mReplayed      *trace.Counter   // data frames replayed by resume handshakes
	mPeerDead      *trace.Counter   // peers declared dead
	mSentBytes     *trace.Counter   // data payload bytes written (excl. retries' duplicates)

	// rec is this rank's trace recorder (nil without Options.Timeline).
	// Only the goroutine driving Send/Recv/collectives touches it — the
	// read loops pass frame metadata through the message queue instead of
	// recording themselves, preserving the recorder's single-owner rule.
	rec *trace.Recorder
}

type message struct {
	tag    int
	data   []byte
	seq    uint32 // wire sequence (0 for self-sends: no flow edge)
	sendNs int64  // sender's wall clock from the frame header
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
		rank:   rank,
		size:   size,
		addrs:  append([]string(nil), addrs...),
		opt:    opt.withDefaults(),
		peers:  make([]*peer, size),
		queues: map[int][]message{},
		dead:   map[int]error{},
		done:   make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	for r := range c.peers {
		c.peers[r] = &peer{}
	}
	c.rec = c.opt.Timeline.Rank(rank) // nil-safe: nil timeline, nil recorder
	if reg := c.opt.Metrics; reg != nil {
		c.mHBGap = reg.Histogram("tcpmpi_heartbeat_gap_seconds",
			"Observed gap between keepalives per peer connection.",
			trace.ExpBuckets(0.001, 4, 8))
		c.mReconnects = reg.Counter("tcpmpi_reconnects_total",
			"Connections successfully replaced after a failure.")
		c.mReconnTries = reg.Counter("tcpmpi_reconnect_attempts_total",
			"Reconnect dial attempts, including ones that failed.")
		c.mReconnBackoff = reg.Counter("tcpmpi_reconnect_backoff_ms_total",
			"Milliseconds slept in reconnect backoff (with jitter).")
		c.mRetries = reg.Counter("tcpmpi_send_retries_total",
			"Send attempts that failed and were retried.")
		c.mReplayed = reg.Counter("tcpmpi_replayed_frames_total",
			"Data frames replayed to a peer by resume handshakes.")
		c.mPeerDead = reg.Counter("tcpmpi_peer_failures_total",
			"Peers declared dead after recovery failed.")
		c.mSentBytes = reg.Counter("tcpmpi_sent_bytes_total",
			"Data payload bytes handed to Send.")
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
	go c.acceptLoop(c.ln)

	// Dial every lower rank in the mesh.
	var wg sync.WaitGroup
	errCh := make(chan error, size)
	for dst := 0; dst < rank; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			conn, theirRecv, err := c.dialPeer(dst)
			if err != nil {
				errCh <- err
				return
			}
			c.resumeConn(dst, conn, theirRecv)
		}(dst)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		c.Close()
		return nil, err
	default:
	}

	// Wait for every higher rank's hello, delivered by the accept loop.
	deadline := time.Now().Add(c.opt.DialTimeout)
	for {
		missing := -1
		for r := rank + 1; r < size; r++ {
			c.peers[r].mu.Lock()
			up := c.peers[r].conn != nil
			c.peers[r].mu.Unlock()
			if !up {
				missing = r
				break
			}
		}
		if missing < 0 {
			break
		}
		if time.Now().After(deadline) {
			c.Close()
			return nil, fmt.Errorf("tcpmpi: rank %d: timed out waiting for hello from rank %d", rank, missing)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if c.opt.HeartbeatInterval > 0 {
		go c.heartbeatLoop()
	}
	return c, nil
}

// helloLen is the dialer's resume hello: u32 rank | u32 recvSeq | u32
// flags. replyLen is the acceptor's answer: u32 recvSeq | u32 reserved.
const (
	helloLen = 12
	replyLen = 8
)

// Hello flag bits. Any other bit set marks a malformed or
// incompatible-version hello, which the decoder rejects outright —
// mis-parsing a watermark as a flag word (or vice versa) must never
// silently mis-resume a connection.
const (
	// helloFresh marks the dialer as a fresh incarnation: its first-ever
	// connection to this peer, with zeroed sequence state.
	helloFresh = 1 << 0
	// helloRegister marks a worker registering with a cluster Registrar
	// instead of joining a rank mesh: the rank field is ignored, the reply's
	// first word carries the assigned worker id and its second the lease
	// TTL in milliseconds.
	helloRegister = 1 << 1
	// helloClient marks a cluster client (job submitter): registered like a
	// worker but never counted as training capacity.
	helloClient = 1 << 2

	helloKnownFlags = helloFresh | helloRegister | helloClient
)

// helloMsg is the decoded 12-byte hello.
type helloMsg struct {
	rank    uint32 // dialing rank (mesh) — ignored on register/client hellos
	recvSeq uint32 // highest data seq the dialer has received from us
	flags   uint32
}

// parseHello decodes and validates a hello. Unknown flag bits are rejected:
// a corrupt or version-skewed hello must fail the handshake, not resume
// from a garbage watermark.
func parseHello(b []byte) (helloMsg, error) {
	if len(b) < helloLen {
		return helloMsg{}, fmt.Errorf("tcpmpi: short hello (%d bytes)", len(b))
	}
	h := helloMsg{
		rank:    binary.LittleEndian.Uint32(b[0:4]),
		recvSeq: binary.LittleEndian.Uint32(b[4:8]),
		flags:   binary.LittleEndian.Uint32(b[8:12]),
	}
	if h.flags&^uint32(helloKnownFlags) != 0 {
		return helloMsg{}, fmt.Errorf("tcpmpi: hello with unknown flags %#x", h.flags)
	}
	if h.flags&helloRegister != 0 && h.flags&helloClient != 0 {
		return helloMsg{}, errors.New("tcpmpi: hello is both worker and client registration")
	}
	return h, nil
}

// putHello encodes a hello into b (len ≥ helloLen).
func putHello(b []byte, h helloMsg) {
	binary.LittleEndian.PutUint32(b[0:4], h.rank)
	binary.LittleEndian.PutUint32(b[4:8], h.recvSeq)
	binary.LittleEndian.PutUint32(b[8:12], h.flags)
}

// dialPeer establishes (or re-establishes) the connection to a lower rank,
// retrying the TCP dial until the dial timeout, and performs the resume
// handshake. It returns the peer's received-seq watermark — the replay
// point for frames it never saw.
func (c *Comm) dialPeer(dst int) (net.Conn, uint32, error) {
	deadline := time.Now().Add(c.opt.DialTimeout)
	var conn net.Conn
	var err error
	for {
		conn, err = net.DialTimeout("tcp", c.addrs[dst], time.Second)
		if err == nil || time.Now().After(deadline) {
			break
		}
		select {
		case <-c.done:
			return nil, 0, errors.New("tcpmpi: closed during dial")
		case <-time.After(50 * time.Millisecond):
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("tcpmpi: dial rank %d at %s: %w", dst, c.addrs[dst], err)
	}
	theirRecv, err := c.dialHandshake(conn, dst)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	return conn, theirRecv, nil
}

// dialPeerOnce is dialPeer with a single TCP dial attempt — the reconnect
// loop owns its own backoff schedule, so the inner retry loop would fight
// it.
func (c *Comm) dialPeerOnce(dst int) (net.Conn, uint32, error) {
	conn, err := net.DialTimeout("tcp", c.addrs[dst], c.opt.ReconnectBackoffMax)
	if err != nil {
		return nil, 0, fmt.Errorf("tcpmpi: dial rank %d at %s: %w", dst, c.addrs[dst], err)
	}
	theirRecv, err := c.dialHandshake(conn, dst)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	return conn, theirRecv, nil
}

// dialHandshake runs the dialer side of the resume handshake: send our rank
// and received-seq watermark, read back the acceptor's watermark.
func (c *Comm) dialHandshake(conn net.Conn, dst int) (uint32, error) {
	p := c.peers[dst]
	p.mu.Lock()
	ourRecv := p.recvSeq
	fresh := p.gen == 0 // no connection ever installed: first incarnation
	p.mu.Unlock()
	var flags uint32
	if fresh {
		flags |= helloFresh
	}
	var hello [helloLen]byte
	putHello(hello[:], helloMsg{rank: uint32(c.rank), recvSeq: ourRecv, flags: flags})
	conn.SetWriteDeadline(time.Now().Add(c.opt.DialTimeout))
	if _, err := conn.Write(hello[:]); err != nil {
		return 0, fmt.Errorf("tcpmpi: hello to rank %d: %w", dst, err)
	}
	conn.SetWriteDeadline(time.Time{})
	var reply [replyLen]byte
	conn.SetReadDeadline(time.Now().Add(c.opt.DialTimeout))
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		return 0, fmt.Errorf("tcpmpi: hello reply from rank %d: %w", dst, err)
	}
	conn.SetReadDeadline(time.Time{})
	return binary.LittleEndian.Uint32(reply[0:4]), nil
}

// resumeConn installs a fresh connection and replays the unacked frames
// while holding off concurrent Sends. The hold-off matters for ordering: a
// Send that slipped a new (higher-seq) frame onto the fresh connection
// before the replay drained would bump the receiver's watermark past the
// replayed frames, and its dedup would then drop them as stale duplicates —
// silently losing frames the sender reported (or will report) as delivered.
// The connection is installed first so both sides' read loops are up before
// either side replays; replaying before install could deadlock two peers
// whose simultaneous replays fill the unread TCP buffers in both directions.
func (c *Comm) resumeConn(src int, conn net.Conn, theirRecv uint32) {
	p := c.peers[src]
	p.mu.Lock()
	p.replaying = true
	p.mu.Unlock()
	c.installConn(src, conn)
	c.replayUnacked(src, conn, theirRecv)
	p.mu.Lock()
	p.replaying = false
	p.mu.Unlock()
	c.cond.Broadcast()
}

// replayUnacked re-sends the retained data frames the peer has not seen
// (seq > theirRecv) over a fresh connection — the sender half of the
// resume handshake. Receiver-side dedup keeps redelivery exactly-once.
// Frames are pulled from the ring one at a time so a concurrent Send that
// fails (and scrubs its frame) is not redelivered from a stale snapshot.
func (c *Comm) replayUnacked(src int, conn net.Conn, theirRecv uint32) {
	p := c.peers[src]
	after := theirRecv
	replayed := 0
	for {
		p.sendMu.Lock()
		var f sentFrame
		found := false
		for i := range p.ring {
			if p.ring[i].seq > after {
				f, found = p.ring[i], true
				break
			}
		}
		p.sendMu.Unlock()
		if !found {
			break
		}
		if err := c.writeFrame(p, conn, f.tag, f.seq, f.sendNs, f.data); err != nil {
			return // the read loop notices the broken conn; next reconnect replays again
		}
		// A replayed frame is a successful transmission: a Send stuck in
		// its retry loop for this seq can report success instead of
		// re-sending (the receiver would dedup the duplicate anyway).
		p.sendMu.Lock()
		if f.seq > p.replayedSeq {
			p.replayedSeq = f.seq
		}
		p.sendMu.Unlock()
		after = f.seq
		replayed++
	}
	if replayed > 0 {
		c.mReplayed.Add(int64(replayed))
	}
}

// finishSend resolves a send that is about to report failure: if a resume
// handshake already replayed the frame it is a success after all (true);
// otherwise the frame is scrubbed from the replay ring, so a later
// reconnect cannot deliver a message the caller was told had failed.
func (c *Comm) finishSend(p *peer, seq uint32) bool {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if p.replayedSeq >= seq {
		return true
	}
	for i := range p.ring {
		if p.ring[i].seq == seq {
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			break
		}
	}
	return false
}

// acceptLoop runs for the life of the Comm: it accepts initial connections
// from higher ranks during setup and replacement connections after a
// failure. A client that connects but never sends its hello is discarded
// when the handshake read deadline (bounded by DialTimeout) expires, so it
// cannot stall world startup.
func (c *Comm) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-c.done:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		go func(conn net.Conn) {
			var buf [helloLen]byte
			conn.SetReadDeadline(time.Now().Add(c.opt.DialTimeout))
			if _, err := io.ReadFull(conn, buf[:]); err != nil {
				conn.Close() // silent or half-open client: drop it
				return
			}
			conn.SetReadDeadline(time.Time{})
			h, err := parseHello(buf[:])
			if err != nil {
				conn.Close() // malformed or version-skewed hello
				return
			}
			if h.flags&(helloRegister|helloClient) != 0 {
				conn.Close() // registration belongs to a Registrar, not a mesh rank
				return
			}
			src := int(h.rank)
			if src <= c.rank || src >= c.size {
				conn.Close() // bogus hello
				return
			}
			theirRecv := h.recvSeq
			p := c.peers[src]
			if h.flags&helloFresh != 0 {
				// A fresh incarnation (respawned process) numbers its
				// frames from 1 again and remembers nothing of ours:
				// reset our per-peer sequence state to match.
				p.mu.Lock()
				p.recvSeq = 0
				p.mu.Unlock()
				p.sendMu.Lock()
				p.sendSeq = 0
				p.ring = nil
				p.replayedSeq = 0
				p.sendMu.Unlock()
			}
			// Answer with our received-seq watermark so the dialer can
			// replay what we never saw.
			p.mu.Lock()
			ourRecv := p.recvSeq
			p.mu.Unlock()
			var reply [replyLen]byte
			binary.LittleEndian.PutUint32(reply[0:4], ourRecv)
			conn.SetWriteDeadline(time.Now().Add(c.opt.DialTimeout))
			if _, err := conn.Write(reply[:]); err != nil {
				conn.Close()
				return
			}
			conn.SetWriteDeadline(time.Time{})
			c.resumeConn(src, conn, theirRecv)
		}(conn)
	}
}

// installConn swaps in a fresh connection for src (initial setup or
// reconnect) and starts its reader. A fresh connection also resurrects a
// peer previously declared dead — the elastic-recovery path where a
// supervisor respawns a crashed worker process, which then re-dials.
func (c *Comm) installConn(src int, conn net.Conn) {
	p := c.peers[src]
	p.mu.Lock()
	if old := p.conn; old != nil {
		old.Close()
	}
	p.conn = conn
	p.gen++
	p.broken = false
	p.lastSeen = time.Now()
	gen := p.gen
	p.mu.Unlock()
	c.mu.Lock()
	delete(c.dead, src)
	c.mu.Unlock()
	c.cond.Broadcast()
	go c.readLoop(src, conn, gen)
}

// Close tears down all connections; blocked receivers fail.
func (c *Comm) Close() error {
	c.mu.Lock()
	if c.closed == nil {
		c.closed = errors.New("tcpmpi: closed")
	}
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
	c.cond.Broadcast()
	if c.ln != nil {
		c.ln.Close()
	}
	for _, p := range c.peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	}
	return nil
}

func (c *Comm) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed != nil
}

// parseFrameHeader decodes one 20-byte frame header, rejecting oversized
// payload lengths.
func parseFrameHeader(hdr []byte) (tag int, seq uint32, sendNs int64, n uint32, err error) {
	if len(hdr) < frameHeaderLen {
		return 0, 0, 0, 0, fmt.Errorf("tcpmpi: short frame header (%d bytes)", len(hdr))
	}
	tag = int(int32(binary.LittleEndian.Uint32(hdr[:4])))
	seq = binary.LittleEndian.Uint32(hdr[4:8])
	sendNs = int64(binary.LittleEndian.Uint64(hdr[8:16]))
	n = binary.LittleEndian.Uint32(hdr[16:20])
	if n > maxFrame {
		return 0, 0, 0, 0, fmt.Errorf("tcpmpi: oversized frame (%d bytes)", n)
	}
	return tag, seq, sendNs, n, nil
}

// putFrameHeader encodes a frame header into hdr (len ≥ frameHeaderLen).
func putFrameHeader(hdr []byte, tag int, seq uint32, sendNs int64, n int) {
	binary.LittleEndian.PutUint32(hdr[:4], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(hdr[4:8], seq)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(sendNs))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(n))
}

// readFrame reads one complete frame from r.
func readFrame(r io.Reader) (tag int, seq uint32, sendNs int64, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	var n uint32
	if tag, seq, sendNs, n, err = parseFrameHeader(hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, 0, nil, err
	}
	return tag, seq, sendNs, payload, nil
}

func (c *Comm) readLoop(src int, conn net.Conn, gen int) {
	p := c.peers[src]
	for {
		tag, seq, sendNs, data, err := readFrame(conn)
		if err != nil {
			c.peerBroken(src, gen, fmt.Errorf("tcpmpi: read from rank %d: %w", src, err))
			return
		}
		if tag == hbTag {
			p.mu.Lock()
			gap := time.Since(p.lastSeen)
			p.lastSeen = time.Now()
			p.mu.Unlock()
			c.mHBGap.Observe(gap.Seconds())
			continue
		}
		p.touch()
		if seq != 0 {
			// Drop frames replayed by a send retry across a reconnect.
			p.mu.Lock()
			if seq <= p.recvSeq {
				p.mu.Unlock()
				continue
			}
			p.recvSeq = seq
			p.mu.Unlock()
		}
		c.mu.Lock()
		c.queues[src] = append(c.queues[src], message{tag: tag, data: data, seq: seq, sendNs: sendNs})
		c.mu.Unlock()
		c.cond.Broadcast()
	}
}

// peerBroken handles a failed connection to src: at most one caller per
// generation proceeds; it closes the connection and attempts the single
// allowed recovery (re-dial for lower ranks, wait-for-replacement for
// higher ranks) before declaring the rank dead.
func (c *Comm) peerBroken(src, gen int, cause error) {
	if c.isClosed() {
		return
	}
	p := c.peers[src]
	p.mu.Lock()
	if p.gen != gen || p.broken {
		p.mu.Unlock()
		return
	}
	p.broken = true
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()

	go c.recoverPeer(src, gen, cause)
}

func (c *Comm) recoverPeer(src, gen int, cause error) {
	if c.opt.DisableReconnect {
		c.fail(src, cause)
		return
	}
	if src < c.rank {
		// We dialed this peer originally: re-dial with capped exponential
		// backoff plus jitter, then resume-handshake and replay.
		backoff := c.opt.ReconnectBackoff
		var lastErr error
		for attempt := 1; attempt <= c.opt.ReconnectAttempts; attempt++ {
			if c.isClosed() {
				return
			}
			c.mReconnTries.Add(1)
			conn, theirRecv, err := c.dialPeerOnce(src)
			if err == nil {
				p := c.peers[src]
				p.mu.Lock()
				stale := p.gen != gen
				p.mu.Unlock()
				if stale {
					conn.Close() // someone else already recovered
					return
				}
				c.resumeConn(src, conn, theirRecv)
				c.mReconnects.Add(1)
				return
			}
			lastErr = err
			if attempt == c.opt.ReconnectAttempts {
				break
			}
			// Additive jitter up to 50% keeps a restarted fleet from
			// hammering the listener in lockstep.
			sleep := backoff + jitter(backoff/2)
			c.mReconnBackoff.Add(sleep.Milliseconds())
			select {
			case <-c.done:
				return
			case <-time.After(sleep):
			}
			backoff *= 2
			if backoff > c.opt.ReconnectBackoffMax {
				backoff = c.opt.ReconnectBackoffMax
			}
		}
		c.fail(src, fmt.Errorf("tcpmpi: rank %d dead (%d reconnect attempts failed, last: %v): %w",
			src, c.opt.ReconnectAttempts, lastErr, cause))
		return
	}
	// The peer dialed us: wait out its reconnect budget (its backed-off
	// dials plus detection latency), then give up.
	budget := c.opt.reconnectBudget()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return
		case <-time.After(10 * time.Millisecond):
		}
		p := c.peers[src]
		p.mu.Lock()
		recovered := p.gen > gen && !p.broken
		p.mu.Unlock()
		if recovered {
			c.mReconnects.Add(1)
			return
		}
	}
	c.fail(src, fmt.Errorf("tcpmpi: rank %d dead (no reconnect within %v): %w", src, budget, cause))
}

// heartbeatLoop sends keepalives on every connection and declares peers
// that have been silent past the threshold broken, so a wedged (but not
// closed) peer is detected within a bounded interval.
func (c *Comm) heartbeatLoop() {
	ticker := time.NewTicker(c.opt.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		for r := 0; r < c.size; r++ {
			if r == c.rank || c.isDead(r) {
				continue
			}
			p := c.peers[r]
			p.mu.Lock()
			conn, gen, broken, last := p.conn, p.gen, p.broken, p.lastSeen
			p.mu.Unlock()
			if conn == nil || broken {
				continue
			}
			if time.Since(last) > c.opt.HeartbeatTimeout {
				c.peerBroken(r, gen, fmt.Errorf("tcpmpi: rank %d silent for %v", r, c.opt.HeartbeatTimeout))
				continue
			}
			c.writeFrame(p, conn, hbTag, 0, 0, nil)
			// Write errors surface through the reader of the same
			// connection or the silence threshold; nothing to do here.
		}
	}
}

// writeFrame writes one frame (header + payload) under the peer's send
// lock with the configured write deadline.
func (c *Comm) writeFrame(p *peer, conn net.Conn, tag int, seq uint32, sendNs int64, data []byte) error {
	buf := make([]byte, frameHeaderLen+len(data))
	putFrameHeader(buf, tag, seq, sendNs, len(data))
	copy(buf[frameHeaderLen:], data)
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if d := c.opt.writeDeadline(); d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
		defer conn.SetWriteDeadline(time.Time{})
	}
	_, err := conn.Write(buf)
	return err
}

// jitter draws the additive reconnect jitter in [0, max] from the
// process-global RNG.
func jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(max) + 1))
}

// fail marks the connection to src as dead: only operations that depend on
// src report the error, so a peer that finishes and exits early does not
// poison unrelated traffic.
func (c *Comm) fail(src int, err error) {
	c.mu.Lock()
	fresh := false
	if _, ok := c.dead[src]; !ok {
		c.dead[src] = err
		fresh = true
	}
	c.mu.Unlock()
	if fresh {
		c.mPeerDead.Add(1)
	}
	c.cond.Broadcast()
}

func (c *Comm) isDead(src int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.dead[src]
	return ok
}

func (c *Comm) deadErr(src int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead[src]
}

// Send transmits data to rank dst with the given tag. Transient connection
// failures are retried with exponential backoff across the reconnect
// attempt; the frame sequence number lets the receiver discard replays, so
// a retried send is delivered at most once.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("tcpmpi: send to invalid rank %d", dst)
	}
	if dst == c.rank {
		// Copy: the caller may mutate data after Send returns, and the
		// queued message must not alias it.
		c.mu.Lock()
		c.queues[dst] = append(c.queues[dst], message{tag: tag, data: append([]byte(nil), data...)})
		c.mu.Unlock()
		c.cond.Broadcast()
		c.mSentBytes.Add(int64(len(data)))
		return nil
	}
	p := c.peers[dst]
	var sendNs int64
	if c.rec != nil {
		sendNs = time.Now().UnixNano()
	}
	p.sendMu.Lock()
	p.sendSeq++
	seq := p.sendSeq
	// Retain a copy for resume replay: a reconnect handshake re-sends
	// whatever the peer's watermark says it never received.
	p.remember(sentFrame{seq: seq, tag: tag, sendNs: sendNs,
		data: append([]byte(nil), data...)}, c.opt.ReplayWindow)
	p.sendMu.Unlock()

	replayed := func() bool {
		p.sendMu.Lock()
		defer p.sendMu.Unlock()
		return p.replayedSeq >= seq
	}
	backoff := c.opt.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if replayed() {
			// A reconnect's resume handshake already delivered this frame.
			c.mSentBytes.Add(int64(len(data)))
			return nil
		}
		if err := c.deadErr(dst); err != nil {
			if c.finishSend(p, seq) {
				c.mSentBytes.Add(int64(len(data)))
				return nil
			}
			return err
		}
		if c.isClosed() {
			c.finishSend(p, seq)
			return errors.New("tcpmpi: closed")
		}
		p.mu.Lock()
		conn, broken := p.conn, p.broken
		// A resume handshake owns the fresh connection until its replay
		// drains (see resumeConn); treat the peer as not-ready and retry.
		if p.replaying {
			broken = true
		}
		gen := p.gen
		p.mu.Unlock()
		if conn == nil || broken {
			lastErr = fmt.Errorf("tcpmpi: no connection to rank %d", dst)
		} else if err := c.writeFrame(p, conn, tag, seq, sendNs, data); err != nil {
			lastErr = err
			c.peerBroken(dst, gen, fmt.Errorf("tcpmpi: write to rank %d: %w", dst, err))
		} else {
			c.mSentBytes.Add(int64(len(data)))
			return nil
		}
		if attempt == c.opt.Retries {
			break
		}
		c.mRetries.Add(1)
		select {
		case <-c.done:
			c.finishSend(p, seq)
			return errors.New("tcpmpi: closed")
		case <-time.After(backoff):
		}
		backoff *= 2
	}
	if c.finishSend(p, seq) { // the last backoff window can race the reconnect
		c.mSentBytes.Add(int64(len(data)))
		return nil
	}
	return lastErr
}

// Recv blocks until a message with the given tag arrives from src, src is
// declared dead, the Comm closes, or the per-operation deadline
// (Options.Timeout) expires.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	if src < 0 || src >= c.size {
		return nil, fmt.Errorf("tcpmpi: recv from invalid rank %d", src)
	}
	var deadline time.Time
	if c.opt.Timeout > 0 {
		deadline = time.Now().Add(c.opt.Timeout)
		// Broadcast under c.mu (as Lease.timeoutBroadcast does): a bare
		// Broadcast can land between the deadline check below and the
		// Wait, and the receive would then outlive its timeout.
		timer := time.AfterFunc(c.opt.Timeout, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.cond.Broadcast()
		})
		defer timer.Stop()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		q := c.queues[src]
		for i := range q {
			if q[i].tag == tag {
				m := q[i]
				c.queues[src] = append(q[:i], q[i+1:]...)
				if c.rec != nil && m.seq != 0 && src != c.rank {
					// Wall-only cross-process edge; the id is unique per
					// (src, seq) within this receiver, and the wire-level
					// replay dedup above guarantees each seq arrives once.
					c.rec.RecordFlow(trace.FlowEdge{
						ID:         int64(src+1)<<40 | int64(m.seq),
						Src:        src,
						Dst:        c.rank,
						Tag:        tag,
						Bytes:      len(m.data),
						SendWallNs: m.sendNs,
						RecvWallNs: time.Now().UnixNano(),
					})
				}
				return m.data, nil
			}
		}
		if err, ok := c.dead[src]; ok {
			return nil, err
		}
		if c.closed != nil {
			return nil, c.closed
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, fmt.Errorf("tcpmpi: recv from rank %d tag %d: timeout after %v", src, tag, c.opt.Timeout)
		}
		c.cond.Wait()
	}
}

// collective runs one of internal/mpi's collectives over this mesh: the tree
// walks live there, once, for both transports. The throwaway world prices
// nothing (zero machine) and restarts the collective tag sequence, which is
// safe because every rank calls collectives in the same order and the mesh
// is FIFO per (source, tag).
func (c *Comm) collective(f func(m *mpi.Comm)) error {
	w := mpi.NewWorld(c.size, perfmodel.Machine{}, 0)
	w.SetTimeline(c.opt.Timeline)
	return w.RunLink(c.rank, c, func(m *mpi.Comm) error { f(m); return nil })
}

// Barrier blocks until every rank enters it.
func (c *Comm) Barrier() error {
	return c.collective(func(m *mpi.Comm) { m.Barrier() })
}

// AllreduceSum element-wise sums x across ranks; every rank returns the
// total.
func (c *Comm) AllreduceSum(x []float64) (sum []float64, err error) {
	err = c.collective(func(m *mpi.Comm) { sum = m.AllreduceSum(x) })
	return sum, err
}
