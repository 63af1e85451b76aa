// Lease-based cluster membership on the tcpmpi wire format.
//
// A Registrar is the coordinator side: workers dial in and send the same
// 12-byte hello the rank mesh uses, with the helloRegister (or helloClient)
// flag set. The reply's first word carries the assigned worker id and its
// second the lease TTL in milliseconds. The connection then stays open as
// the lease channel: heartbeat frames (hbTag) renew the lease, data frames
// carry cluster control messages in either direction, and a connection that
// stays silent past the TTL expires — the failure-detector verdict the
// cluster runtime feeds into shrink/respawn recovery. A cleanly closed
// connection is a leave, not an expiry.
//
// No static rank table is involved: workers discover the coordinator by
// address alone, and ids are assigned in registration order.
package tcpmpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

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
	// LeaseTTL is how long a lease survives without a heartbeat renewal
	// before it expires. 0 means 6s.
	LeaseTTL time.Duration
	// CheckInterval is the expiry-scan cadence. 0 means LeaseTTL/4.
	CheckInterval time.Duration

	// OnJoin fires when a worker (or client) registers.
	OnJoin func(w WorkerInfo)
	// OnExpire fires when a lease passes its TTL without renewal — the
	// failure-detector verdict.
	OnExpire func(w WorkerInfo)
	// OnLeave fires when a registered connection closes cleanly (or breaks)
	// before its lease expires.
	OnLeave func(w WorkerInfo)
	// OnFrame receives every non-heartbeat frame a registered connection
	// sends: the cluster control channel (job submissions, status queries).
	OnFrame func(w WorkerInfo, tag int, payload []byte)
}

func (cfg RegistrarConfig) withDefaults() RegistrarConfig {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 6 * time.Second
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = cfg.LeaseTTL / 4
	}
	return cfg
}

// lease is the registrar-side state of one registered connection.
type lease struct {
	info WorkerInfo
	conn net.Conn

	// pongs carries clock-probe replies from the frame loop to ProbeClock.
	// Buffered so a pong arriving after a probe timed out never blocks the
	// frame loop; ProbeClock discards stale entries by probe id.
	pongs chan []byte

	mu       sync.Mutex
	lastSeen time.Time
	gone     bool // expired or left; the read loop must not double-report
}

func (l *lease) renew() {
	l.mu.Lock()
	l.lastSeen = time.Now()
	l.mu.Unlock()
}

// takeGone marks the lease gone and reports whether this caller was first —
// exactly one of expiry scan and read loop wins.
func (l *lease) takeGone() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gone {
		return false
	}
	l.gone = true
	return true
}

// Registrar is the coordinator-side membership endpoint.
type Registrar struct {
	ln  net.Listener
	cfg RegistrarConfig

	mu     sync.Mutex
	leases map[int]*lease
	nextID int

	done     chan struct{}
	doneOnce sync.Once
}

// NewRegistrar listens on addr (":0" picks a free port) and serves worker
// registrations until Close.
func NewRegistrar(addr string, cfg RegistrarConfig) (*Registrar, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpmpi: registrar listen %s: %w", addr, err)
	}
	r := &Registrar{
		ln:     ln,
		cfg:    cfg.withDefaults(),
		leases: map[int]*lease{},
		done:   make(chan struct{}),
	}
	go r.acceptLoop()
	go r.expiryLoop()
	return r, nil
}

// Addr returns the bound listen address.
func (r *Registrar) Addr() string { return r.ln.Addr().String() }

// Close stops the registrar and closes every registered connection.
func (r *Registrar) Close() error {
	r.doneOnce.Do(func() { close(r.done) })
	err := r.ln.Close()
	r.mu.Lock()
	ls := make([]*lease, 0, len(r.leases))
	for _, l := range r.leases {
		ls = append(ls, l)
	}
	r.leases = map[int]*lease{}
	r.mu.Unlock()
	for _, l := range ls {
		l.takeGone() // suppress leave/expire callbacks during shutdown
		l.conn.Close()
	}
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

// Send writes one control frame to a registered connection.
func (r *Registrar) Send(id, tag int, payload []byte) error {
	r.mu.Lock()
	l, ok := r.leases[id]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("tcpmpi: no lease %d", id)
	}
	return writeLeaseFrame(l.conn, tag, payload, r.cfg.LeaseTTL)
}

// Revoke force-expires a lease: the connection closes and OnExpire fires as
// if the TTL had lapsed. Cluster tests (and an admin endpoint) use it to
// inject a deterministic membership failure.
func (r *Registrar) Revoke(id int) error {
	r.mu.Lock()
	l, ok := r.leases[id]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("tcpmpi: no lease %d", id)
	}
	if l.takeGone() {
		r.drop(l)
		l.conn.Close()
		if r.cfg.OnExpire != nil {
			r.cfg.OnExpire(l.info)
		}
	}
	return nil
}

func (r *Registrar) drop(l *lease) {
	r.mu.Lock()
	delete(r.leases, l.info.ID)
	r.mu.Unlock()
}

func (r *Registrar) acceptLoop() {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			if r.isClosed() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		go r.register(conn)
	}
}

// register runs the acceptor side of the registration handshake and, on
// success, the connection's frame loop.
func (r *Registrar) register(conn net.Conn) {
	var buf [helloLen]byte
	conn.SetReadDeadline(time.Now().Add(DialTimeout))
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	h, err := parseHello(buf[:])
	if err != nil || h.flags&(helloRegister|helloClient) == 0 {
		conn.Close() // not a registration hello
		return
	}

	r.mu.Lock()
	id := r.nextID
	r.nextID++
	l := &lease{
		info: WorkerInfo{ID: id, Addr: conn.RemoteAddr().String(), Client: h.flags&helloClient != 0},
		conn: conn, lastSeen: time.Now(),
		pongs: make(chan []byte, 8),
	}
	r.leases[id] = l
	r.mu.Unlock()

	var reply [replyLen]byte
	putLeaseReply(reply[:], uint32(id), uint32(r.cfg.LeaseTTL.Milliseconds()))
	conn.SetWriteDeadline(time.Now().Add(DialTimeout))
	if _, err := conn.Write(reply[:]); err != nil {
		r.drop(l)
		conn.Close()
		return
	}
	conn.SetWriteDeadline(time.Time{})

	if r.cfg.OnJoin != nil {
		r.cfg.OnJoin(l.info)
	}
	r.frameLoop(l)
}

// frameLoop consumes one lease connection: heartbeats renew, data frames go
// to OnFrame, and a read error is a leave (unless the lease already
// expired or the registrar is closing).
func (r *Registrar) frameLoop(l *lease) {
	for {
		tag, _, _, payload, err := readFrame(l.conn)
		if err != nil {
			if l.takeGone() && !r.isClosed() {
				r.drop(l)
				l.conn.Close()
				if r.cfg.OnLeave != nil {
					r.cfg.OnLeave(l.info)
				}
			}
			return
		}
		l.renew()
		if tag == hbTag {
			continue
		}
		if tag == pingTag {
			// Answer a worker-initiated probe inline: t2 is now, t3 is
			// stamped at encode time inside makePong.
			if len(payload) == pingLen {
				_ = writeLeaseFrame(l.conn, pongTag, makePong(payload, time.Now().UnixNano()), r.cfg.LeaseTTL)
			}
			continue
		}
		if tag == pongTag {
			select {
			case l.pongs <- payload:
			default: // probe gave up; drop rather than block the frame loop
			}
			continue
		}
		if r.cfg.OnFrame != nil {
			r.cfg.OnFrame(l.info, tag, payload)
		}
	}
}

// expiryLoop scans for leases past their TTL.
func (r *Registrar) expiryLoop() {
	ticker := time.NewTicker(r.cfg.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		var expired []*lease
		for _, l := range r.leases {
			l.mu.Lock()
			if !l.gone && time.Since(l.lastSeen) > r.cfg.LeaseTTL {
				l.gone = true
				expired = append(expired, l)
			}
			l.mu.Unlock()
		}
		for _, l := range expired {
			delete(r.leases, l.info.ID)
		}
		r.mu.Unlock()
		for _, l := range expired {
			l.conn.Close()
			if r.cfg.OnExpire != nil {
				r.cfg.OnExpire(l.info)
			}
		}
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
// Both read loops answer pings inline — before any queueing or callback —
// so scheduling delay on the answering side stays inside the (t3−t2)
// correction instead of inflating the RTT. Like heartbeats, probe frames
// renew the lease but are invisible to OnFrame/Recv.
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
// interleave; run bursts sequentially (the fleet collector does).
func (r *Registrar) ProbeClock(id, n int, timeout time.Duration) (ClockEstimate, error) {
	if n < 1 {
		n = 1
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	r.mu.Lock()
	l, ok := r.leases[id]
	r.mu.Unlock()
	if !ok {
		return ClockEstimate{}, fmt.Errorf("tcpmpi: no lease %d", id)
	}
	deadline := time.Now().Add(timeout)
	est := ClockEstimate{RTTNs: 1<<63 - 1}
	for i := 0; i < n; i++ {
		probeID := probeSeq.Add(1)
		var ping [pingLen]byte
		t1 := time.Now().UnixNano()
		putPing(ping[:], probeID, t1)
		if err := writeLeaseFrame(l.conn, pingTag, ping[:], time.Until(deadline)); err != nil {
			break
		}
	await:
		for {
			var pong []byte
			select {
			case pong = <-l.pongs:
			case <-time.After(time.Until(deadline)):
				break await
			}
			t4 := time.Now().UnixNano()
			id2, pt1, t2, t3, ok := parsePong(pong)
			if !ok || id2 != probeID || pt1 != t1 {
				continue // stale pong from an earlier burst
			}
			rtt := (t4 - t1) - (t3 - t2)
			if rtt < 0 {
				rtt = 0
			}
			if rtt <= est.RTTNs {
				est.RTTNs = rtt
				est.OffsetNs = ((t2 - t1) + (t3 - t4)) / 2
			}
			est.Samples++
			break
		}
		if !time.Now().Before(deadline) {
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

func parseLeaseReply(b []byte) (id, ttlMillis uint32) {
	return binary.LittleEndian.Uint32(b[0:4]), binary.LittleEndian.Uint32(b[4:8])
}

// writeLeaseFrame writes one frame on a lease connection. Lease frames are
// control traffic: seq 0, no replay, no dedup.
func writeLeaseFrame(conn net.Conn, tag int, payload []byte, deadline time.Duration) error {
	buf := make([]byte, frameHeaderLen+len(payload))
	putFrameHeader(buf, tag, 0, 0, len(payload))
	copy(buf[frameHeaderLen:], payload)
	if deadline > 0 {
		conn.SetWriteDeadline(time.Now().Add(deadline))
		defer conn.SetWriteDeadline(time.Time{})
	}
	_, err := conn.Write(buf)
	return err
}

// RegisterOptions tunes the worker side of a registration.
type RegisterOptions struct {
	// Client registers as a job submitter instead of training capacity.
	Client bool
	// DialTimeout bounds the dial and handshake. 0 means 30s.
	DialTimeout time.Duration
	// HeartbeatInterval overrides the renewal cadence. 0 means TTL/3.
	HeartbeatInterval time.Duration
}

// Lease is the worker-side handle on a registration: a live, heartbeated
// membership lease plus the control-frame channel to the coordinator.
type Lease struct {
	conn net.Conn
	id   int
	ttl  time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[int][][]byte
	closed error

	done     chan struct{}
	doneOnce sync.Once
}

// Register dials a Registrar at addr, acquires a lease, and renews it in
// the background until Close (or the coordinator revokes it).
func Register(addr string, opt RegisterOptions) (*Lease, error) {
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = DialTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, opt.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcpmpi: register at %s: %w", addr, err)
	}
	flags := uint32(helloRegister)
	if opt.Client {
		flags = helloClient
	}
	var hello [helloLen]byte
	putHello(hello[:], helloMsg{flags: flags})
	conn.SetWriteDeadline(time.Now().Add(opt.DialTimeout))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcpmpi: register hello: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	var reply [replyLen]byte
	conn.SetReadDeadline(time.Now().Add(opt.DialTimeout))
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcpmpi: register reply: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	id, ttlMillis := parseLeaseReply(reply[:])
	l := &Lease{
		conn:   conn,
		id:     int(id),
		ttl:    time.Duration(ttlMillis) * time.Millisecond,
		queues: map[int][][]byte{},
		done:   make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	hb := opt.HeartbeatInterval
	if hb <= 0 {
		hb = l.ttl / 3
		if hb <= 0 {
			hb = time.Second
		}
	}
	go l.heartbeatLoop(hb)
	go l.readLoop()
	return l, nil
}

// ID returns the coordinator-assigned worker id.
func (l *Lease) ID() int { return l.id }

// Close releases the lease: the coordinator sees a clean leave.
func (l *Lease) Close() error {
	l.fail(errors.New("tcpmpi: lease closed"))
	return nil
}

// Done is closed when the lease ends — by Close, a revocation, or a broken
// coordinator connection.
func (l *Lease) Done() <-chan struct{} { return l.done }

// Err returns why the lease ended (nil while it is live).
func (l *Lease) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.done:
		return l.closed
	default:
		return nil
	}
}

func (l *Lease) fail(err error) {
	l.doneOnce.Do(func() {
		l.mu.Lock()
		l.closed = err
		l.mu.Unlock()
		close(l.done)
		l.conn.Close()
		l.cond.Broadcast()
	})
}

// Send writes one control frame to the coordinator.
func (l *Lease) Send(tag int, payload []byte) error {
	if err := l.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return writeLeaseFrame(l.conn, tag, payload, l.ttl)
}

// timeoutBroadcast wakes Recv/RecvAny waiters when their deadline timer
// fires. It broadcasts under l.mu: a bare Broadcast could land between a
// waiter's deadline check and its cond.Wait — a lost wakeup that leaves
// the call blocked past its timeout until unrelated traffic arrives.
// Holding the mutex forces the timer to wait until the waiter is parked.
func (l *Lease) timeoutBroadcast() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cond.Broadcast()
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
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		timer := time.AfterFunc(timeout, l.timeoutBroadcast)
		defer timer.Stop()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for _, tag := range tags {
			if q := l.queues[tag]; len(q) > 0 {
				b := q[0]
				l.queues[tag] = q[1:]
				return tag, b, nil
			}
		}
		select {
		case <-l.done:
			return 0, nil, l.closed
		default:
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			if len(tags) == 1 {
				return 0, nil, fmt.Errorf("tcpmpi: lease recv tag %d: timeout after %v", tags[0], timeout)
			}
			return 0, nil, fmt.Errorf("tcpmpi: lease recv tags %v: timeout after %v", tags, timeout)
		}
		l.cond.Wait()
	}
}

func (l *Lease) heartbeatLoop(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-ticker.C:
		}
		l.mu.Lock()
		err := writeLeaseFrame(l.conn, hbTag, nil, l.ttl)
		l.mu.Unlock()
		if err != nil {
			l.fail(fmt.Errorf("tcpmpi: lease heartbeat: %w", err))
			return
		}
	}
}

func (l *Lease) readLoop() {
	for {
		tag, _, _, payload, err := readFrame(l.conn)
		if err != nil {
			l.fail(fmt.Errorf("tcpmpi: lease connection lost: %w", err))
			return
		}
		if tag == hbTag {
			continue
		}
		if tag == pingTag {
			// Answer the coordinator's clock probe immediately, before any
			// queueing, so only the (t3−t2)-corrected turnaround is left in
			// the RTT. The write shares l.mu with Send/heartbeats.
			if len(payload) == pingLen {
				t2 := time.Now().UnixNano()
				l.mu.Lock()
				_ = writeLeaseFrame(l.conn, pongTag, makePong(payload, t2), l.ttl)
				l.mu.Unlock()
			}
			continue
		}
		l.mu.Lock()
		l.queues[tag] = append(l.queues[tag], payload)
		l.mu.Unlock()
		l.cond.Broadcast()
	}
}
