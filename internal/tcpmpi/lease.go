// Lease-based cluster membership on the tcpmpi wire format.
//
// A Registrar is the coordinator side: workers dial in and send the same
// 8-byte hello the rank mesh uses, with the helloRegister (or helloClient)
// flag set beside helloHeader8. The reply's first word carries the assigned
// worker id and its second the lease TTL in milliseconds. The connection
// then stays open as the lease channel, a link like a mesh peer's: both sides
// heartbeat every TTL/3, data frames carry cluster control messages either
// way, and either read loop ends the lease after a TTL of silence — on the
// registrar an expiry, the failure-detector verdict the cluster runtime
// feeds into shrink/respawn recovery, as is a Revoke; a clean close is a
// leave.
//
// No static rank table is involved: workers discover the coordinator by
// address alone, and ids are assigned in registration order.
package tcpmpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxLeaseTTL bounds the TTL a registration may carry: it becomes a read
// deadline at both ends.
const maxLeaseTTL = time.Hour

// WorkerInfo identifies one registered connection.
type WorkerInfo struct {
	ID     int
	Addr   string // remote address of the registration connection
	Client bool   // registered with the client flag: a job submitter, not capacity
}

// RegistrarConfig wires a Registrar to its consumer. Callbacks are invoked
// from the registrar's goroutines, serially per worker; they must not block
// for long (they hold up that worker's frame stream, not the whole
// registrar).
type RegistrarConfig struct {
	// LeaseTTL is how long a lease survives without hearing from its
	// worker before it expires, at most an hour. 0 means 6s.
	LeaseTTL time.Duration

	// OnJoin fires when a worker (or client) registers.
	OnJoin func(w WorkerInfo)
	// OnExpire fires when a lease's worker is silent past its TTL, its
	// connection breaks or cannot take a frame, or it is revoked — the
	// failure-detector verdict.
	OnExpire func(w WorkerInfo)
	// OnLeave fires when a registered connection closes cleanly.
	OnLeave func(w WorkerInfo)
	// OnFrame receives every non-heartbeat frame a registered connection
	// sends: the cluster control channel (job submissions, status queries).
	OnFrame func(w WorkerInfo, tag int, payload []byte)
}

// lease is the registrar-side state of one registered connection.
type lease struct {
	*link
	info WorkerInfo

	// pongs carries clock-probe replies from the frame loop to ProbeClock.
	// Buffered so a pong arriving after a probe timed out never blocks the
	// frame loop; ProbeClock discards stale entries by probe id.
	pongs chan []byte
	ended chan struct{} // closed once the frame loop has reported the end
}

// Registrar is the coordinator-side membership endpoint.
type Registrar struct {
	ln  net.Listener
	cfg RegistrarConfig

	mu     sync.Mutex
	leases map[int]*lease
	conns  map[net.Conn]struct{} // accepted connections not yet done with
	nextID int

	done chan struct{}  // closed by Close
	wg   sync.WaitGroup // every goroutine the registrar starts; Close waits for it
}

// NewRegistrar listens on addr (":0" picks a free port) and serves worker
// registrations until Close.
func NewRegistrar(addr string, cfg RegistrarConfig) (*Registrar, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 6 * time.Second
	}
	if cfg.LeaseTTL < time.Millisecond || cfg.LeaseTTL > maxLeaseTTL {
		return nil, fmt.Errorf("tcpmpi: lease TTL %v outside [1ms, %v]", cfg.LeaseTTL, maxLeaseTTL)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpmpi: registrar listen %s: %w", addr, err)
	}
	r := &Registrar{
		ln:     ln,
		cfg:    cfg,
		leases: map[int]*lease{},
		conns:  map[net.Conn]struct{}{},
		done:   make(chan struct{}),
	}
	r.wg.Add(2)
	go func() { defer r.wg.Done(); r.acceptLoop() }()
	go func() { defer r.wg.Done(); tick(r.done, r.cfg.LeaseTTL/3, r.heartbeat) }()
	return r, nil
}

// Addr returns the bound listen address.
func (r *Registrar) Addr() string { return r.ln.Addr().String() }

// Close stops the registrar, closes every connection it accepted, and
// returns once every goroutine it started — accept loop, heartbeats, and
// each connection's registration and frame loop — has exited, so no
// callback runs after Close returns. A callback must therefore never call
// Close. A connection the shutdown closes is not reported as a leave.
func (r *Registrar) Close() error {
	r.mu.Lock()
	if !r.isClosed() {
		close(r.done)
	}
	r.leases = map[int]*lease{}
	for conn := range r.conns {
		conn.Close()
	}
	r.mu.Unlock()
	err := r.ln.Close()
	r.wg.Wait()
	return err
}

func (r *Registrar) isClosed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Workers snapshots the live non-client leases in id order.
func (r *Registrar) Workers() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []WorkerInfo
	for id := 0; id < r.nextID; id++ {
		if l, ok := r.leases[id]; ok && !l.info.Client {
			out = append(out, l.info)
		}
	}
	return out
}

func (r *Registrar) lookup(id int) (*lease, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.leases[id]; ok {
		return l, nil
	}
	return nil, fmt.Errorf("tcpmpi: no lease %d", id)
}

func (r *Registrar) drop(id int) {
	r.mu.Lock()
	delete(r.leases, id)
	r.mu.Unlock()
}

// Send writes one control frame to a registered connection. A frame the
// worker does not take within the TTL expires its lease.
func (r *Registrar) Send(id, tag int, payload []byte) error {
	l, err := r.lookup(id)
	if err != nil {
		return err
	}
	if err := l.write(tag, payload); err != nil {
		l.conn.Close()
		return err
	}
	return nil
}

// Revoke force-expires a lease: the connection closes, and Revoke returns
// once OnExpire has fired as if the TTL had lapsed. Cluster tests (and an
// admin endpoint) use it to inject a deterministic membership failure. A
// callback must not revoke its own worker's lease, which would wait on
// itself.
func (r *Registrar) Revoke(id int) error {
	l, err := r.lookup(id)
	if err != nil {
		return err
	}
	l.conn.Close()
	<-l.ended
	return nil
}

// heartbeat sends every lease a heartbeat, each from its own goroutine so a
// worker that stopped reading holds up no other lease's.
func (r *Registrar) heartbeat() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.leases {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			if l.beat() != nil {
				l.conn.Close()
			}
		}()
	}
}

func (r *Registrar) acceptLoop() {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // closed
		}
		r.mu.Lock()
		if r.isClosed() {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.conns[conn] = struct{}{}
		r.wg.Add(1)
		r.mu.Unlock()
		go func() {
			defer r.wg.Done()
			r.register(conn)
		}()
	}
}

// register runs the acceptor side of the registration handshake and, on
// success, the connection's frame loop. The connection is closed when it
// returns.
func (r *Registrar) register(conn net.Conn) {
	defer func() {
		conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
	}()
	var buf [helloLen]byte
	conn.SetDeadline(time.Now().Add(DialTimeout))
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return
	}
	h, err := parseHello(buf[:])
	if err != nil || h.flags&(helloRegister|helloClient) == 0 {
		return // not a registration hello
	}

	r.mu.Lock()
	if r.isClosed() {
		r.mu.Unlock()
		return
	}
	id := r.nextID
	r.nextID++
	l := &lease{
		link:  &link{conn: conn, silence: r.cfg.LeaseTTL, wait: r.cfg.LeaseTTL},
		info:  WorkerInfo{ID: id, Addr: conn.RemoteAddr().String(), Client: h.flags&helloClient != 0},
		pongs: make(chan []byte, 8),
		ended: make(chan struct{}),
	}
	l.sendMu.Lock() // the reply goes out before any heartbeat
	r.leases[id] = l
	r.mu.Unlock()
	defer close(l.ended)

	var reply [replyLen]byte
	putLeaseReply(reply[:], uint32(id), uint32(r.cfg.LeaseTTL.Milliseconds()))
	_, err = conn.Write(reply[:])
	l.sendMu.Unlock()
	if err != nil {
		r.drop(id)
		return
	}
	if r.cfg.OnJoin != nil {
		r.cfg.OnJoin(l.info)
	}
	r.frameLoop(l)
}

// frameLoop consumes one lease connection until it ends: data frames go to
// OnFrame, pongs to ProbeClock. A clean EOF is a leave; silence, a broken
// connection, a failed write and a revocation are an expiry — unless the
// registrar is closing.
func (r *Registrar) frameLoop(l *lease) {
	err := l.readLoop(func(tag int, payload []byte) {
		switch {
		case tag == pongTag:
			select {
			case l.pongs <- payload:
			default: // probe gave up; drop rather than block the frame loop
			}
		case r.cfg.OnFrame != nil:
			r.cfg.OnFrame(l.info, tag, payload)
		}
	})
	r.drop(l.info.ID)
	switch {
	case r.isClosed():
	case errors.Is(err, io.EOF):
		if r.cfg.OnLeave != nil {
			r.cfg.OnLeave(l.info)
		}
	case r.cfg.OnExpire != nil:
		r.cfg.OnExpire(l.info)
	}
}

// Clock-probe frames. The fleet telemetry plane needs per-worker clock
// offsets to rebase wall-clock spans onto the coordinator's timeline; the
// probe is the classic NTP exchange run over the lease connection itself,
// so it measures exactly the path the traced frames travel.
//
//	coordinator t1 --ping--> worker t2 (recv) .. t3 (send) --pong--> t4
//	offset = ((t2-t1)+(t3-t4))/2   rtt = (t4-t1)-(t3-t2)
//
// Every link's read loop answers pings inline (link.readLoop). Like
// heartbeats, probe frames are invisible to OnFrame/Recv.
const (
	pingTag = hbTag + 1
	pongTag = hbTag + 2

	pingLen = 16 // probeID u64 | t1 i64
	pongLen = 32 // probeID u64 | t1 i64 | t2 i64 | t3 i64
)

func putPing(b []byte, probeID uint64, t1 int64) {
	binary.LittleEndian.PutUint64(b[0:8], probeID)
	binary.LittleEndian.PutUint64(b[8:16], uint64(t1))
}

// makePong builds a pong payload from a ping, stamping the receive time t2
// and (at encode time) the send time t3.
func makePong(ping []byte, t2 int64) []byte {
	b := make([]byte, pongLen)
	copy(b[0:16], ping[0:16]) // probeID, t1 echoed back
	binary.LittleEndian.PutUint64(b[16:24], uint64(t2))
	binary.LittleEndian.PutUint64(b[24:32], uint64(time.Now().UnixNano()))
	return b
}

func parsePong(b []byte) (probeID uint64, t1, t2, t3 int64, ok bool) {
	if len(b) != pongLen {
		return 0, 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[0:8]),
		int64(binary.LittleEndian.Uint64(b[8:16])),
		int64(binary.LittleEndian.Uint64(b[16:24])),
		int64(binary.LittleEndian.Uint64(b[24:32])),
		true
}

// ClockEstimate is the result of a ProbeClock exchange: the remote clock
// minus the local clock (positive = remote runs ahead), taken from the
// minimum-RTT sample of the burst — the sample least polluted by queueing.
type ClockEstimate struct {
	OffsetNs int64 // remote − local, nanoseconds
	RTTNs    int64 // round-trip time of the winning sample
	Samples  int   // how many pings were answered
}

// probeSeq allocates globally unique probe ids so interleaved probes (or a
// stale pong from a timed-out burst) can never satisfy the wrong waiter.
var probeSeq atomic.Uint64

// ProbeClock estimates worker id's clock offset with a burst of n pings
// (min 1) over the lease connection, keeping the minimum-RTT sample.
// Probes of one worker must not run concurrently — their pongs would
// interleave; run bursts sequentially (the cluster coordinator serializes
// the bursts it sends when it merges a job's trace). Never call it from the
// registrar's frame loop (an OnFrame callback): that loop delivers the
// pongs.
func (r *Registrar) ProbeClock(id, n int, timeout time.Duration) (ClockEstimate, error) {
	n = max(n, 1)
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	l, err := r.lookup(id)
	if err != nil {
		return ClockEstimate{}, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	est := ClockEstimate{RTTNs: math.MaxInt64}
burst:
	for i := 0; i < n; i++ {
		probeID := probeSeq.Add(1)
		var ping [pingLen]byte
		t1 := time.Now().UnixNano()
		putPing(ping[:], probeID, t1)
		if err := l.write(pingTag, ping[:]); err != nil {
			l.conn.Close()
			break
		}
		for {
			var pong []byte
			select {
			case pong = <-l.pongs:
			case <-timer.C:
				break burst
			}
			t4 := time.Now().UnixNano()
			id2, pt1, t2, t3, ok := parsePong(pong)
			if !ok || id2 != probeID || pt1 != t1 {
				continue // stale pong from an earlier burst
			}
			rtt := max((t4-t1)-(t3-t2), 0)
			if rtt <= est.RTTNs {
				est.RTTNs = rtt
				est.OffsetNs = ((t2 - t1) + (t3 - t4)) / 2
			}
			est.Samples++
			break
		}
	}
	if est.Samples == 0 {
		return ClockEstimate{}, fmt.Errorf("tcpmpi: clock probe of lease %d: no pongs within %v", id, timeout)
	}
	return est, nil
}

// putLeaseReply encodes the registration reply (the mesh reply's 8-byte
// shape, reinterpreted): assigned worker id, lease TTL in milliseconds.
func putLeaseReply(b []byte, id, ttlMillis uint32) {
	binary.LittleEndian.PutUint32(b[0:4], id)
	binary.LittleEndian.PutUint32(b[4:8], ttlMillis)
}

// parseLeaseReply decodes a registration reply. The TTL becomes the worker's
// read deadline and heartbeat cadence, so one of zero or past maxLeaseTTL is
// refused.
func parseLeaseReply(b []byte) (id int, ttl time.Duration, err error) {
	if len(b) < replyLen {
		return 0, 0, fmt.Errorf("tcpmpi: short registration reply (%d bytes)", len(b))
	}
	ttl = time.Duration(binary.LittleEndian.Uint32(b[4:8])) * time.Millisecond
	if ttl <= 0 || ttl > maxLeaseTTL {
		return 0, 0, fmt.Errorf("tcpmpi: registration reply with lease TTL %v outside (0, %v]", ttl, maxLeaseTTL)
	}
	return int(binary.LittleEndian.Uint32(b[0:4])), ttl, nil
}

// RegisterOptions tunes the worker side of a registration.
type RegisterOptions struct {
	// Client registers as a job submitter instead of training capacity.
	Client bool
}

// Lease is the worker-side handle on a registration: a live, heartbeated
// membership lease plus the control-frame channel to the coordinator.
type Lease struct {
	*link
	id  int
	ttl time.Duration
	mb  *mailbox // one source: the coordinator

	done     chan struct{}
	doneOnce sync.Once
	readDone chan struct{} // closed when the read loop returns
}

// Register dials a Registrar at addr, acquires a lease, and renews it in
// the background until Close, a revocation, or the coordinator falling
// silent past the TTL.
func Register(addr string, opt RegisterOptions) (*Lease, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcpmpi: register at %s: %w", addr, err)
	}
	flags := uint32(helloRegister | helloHeader8)
	if opt.Client {
		flags = helloClient | helloHeader8
	}
	var hello [helloLen]byte
	putHello(hello[:], helloMsg{flags: flags})
	conn.SetDeadline(time.Now().Add(DialTimeout))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcpmpi: register hello: %w", err)
	}
	var reply [replyLen]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcpmpi: register reply: %w", err)
	}
	id, ttl, err := parseLeaseReply(reply[:])
	if err != nil {
		conn.Close()
		return nil, err
	}
	l := &Lease{
		link:     &link{conn: conn, silence: ttl, wait: ttl},
		id:       id,
		ttl:      ttl,
		mb:       newMailbox(1),
		done:     make(chan struct{}),
		readDone: make(chan struct{}),
	}
	go tick(l.done, ttl/3, func() {
		if err := l.beat(); err != nil {
			l.fail(fmt.Errorf("tcpmpi: lease heartbeat: %w", err))
		}
	})
	go func() {
		err := l.readLoop(func(tag int, payload []byte) {
			l.mb.put(0, message{tag: tag, data: payload})
		})
		close(l.readDone)
		l.fail(fmt.Errorf("tcpmpi: lease connection lost: %w", err))
	}()
	return l, nil
}

// ID returns the coordinator-assigned worker id.
func (l *Lease) ID() int { return l.id }

// TTL returns the lease TTL the coordinator granted.
func (l *Lease) TTL() time.Duration { return l.ttl }

// LocalAddr returns this end of the lease connection: an address of this
// worker that the coordinator's host reached.
func (l *Lease) LocalAddr() net.Addr { return l.conn.LocalAddr() }

// Close releases the lease: the coordinator sees a clean leave, after every
// frame sent before Close. It half-closes the connection and reads on until
// the coordinator closes its end, or for at most the TTL: closing with a
// frame unread — a heartbeat, a clock ping — would reset the connection and
// discard the frames still in flight.
func (l *Lease) Close() error {
	l.doneOnce.Do(func() {
		l.mb.fail(0, errors.New("tcpmpi: lease closed"))
		close(l.done)
		l.sendMu.Lock()
		if c, ok := l.conn.(interface{ CloseWrite() error }); ok {
			c.CloseWrite()
		}
		l.sendMu.Unlock()
		// The read loop ends at the coordinator's close, or earlier on a
		// pong it can no longer write; the rest is drained here.
		deadline := time.Now().Add(l.ttl)
		select {
		case <-l.readDone:
			l.conn.SetReadDeadline(deadline)
			io.Copy(io.Discard, l.conn)
		case <-time.After(time.Until(deadline)):
		}
		l.conn.Close()
	})
	return nil
}

// Err returns why the lease ended (nil while it is live).
func (l *Lease) Err() error { return l.mb.err(0) }

func (l *Lease) fail(err error) {
	l.doneOnce.Do(func() {
		l.mb.fail(0, err)
		close(l.done)
		l.conn.Close()
	})
}

// Send writes one control frame to the coordinator. A failed write ends
// the lease.
func (l *Lease) Send(tag int, payload []byte) error {
	if err := l.Err(); err != nil {
		return err
	}
	if err := l.write(tag, payload); err != nil {
		err = fmt.Errorf("tcpmpi: lease send: %w", err)
		l.fail(err)
		return err
	}
	return nil
}

// Recv blocks until a control frame with the given tag arrives, the lease
// ends, or the timeout (0 = no timeout) expires.
func (l *Lease) Recv(tag int, timeout time.Duration) ([]byte, error) {
	_, b, err := l.RecvAny([]int{tag}, timeout)
	return b, err
}

// RecvAny blocks until a control frame carrying any of the given tags
// arrives and returns it with its tag, preserving per-tag FIFO order. When
// frames with several of the tags are queued, the earliest-listed tag wins.
// A zero timeout means no timeout; the lease ending unblocks the call with
// the lease's terminal error. Executor loops use it to multiplex a small
// command vocabulary over one lease without a goroutine per tag.
func (l *Lease) RecvAny(tags []int, timeout time.Duration) (int, []byte, error) {
	m, err := l.mb.take(0, tags, timeout)
	if err == errRecvTimeout {
		return 0, nil, fmt.Errorf("tcpmpi: lease recv tags %v: timeout after %v", tags, timeout)
	}
	if err != nil {
		return 0, nil, err
	}
	return m.tag, m.data, nil
}
