// Lease-based cluster membership on the tcpmpi wire format.
//
// A Registrar is the coordinator side: workers dial in and send the same
// 8-byte hello the rank mesh uses, with the helloRegister (or helloClient)
// flag set beside helloHeader8. The reply's first word carries the assigned
// worker id and its second the lease TTL in milliseconds. The connection
// then stays open as the lease channel, a link like a mesh peer's: both sides
// heartbeat every TTL/3, data frames carry cluster control messages either
// way, nothing else crosses it, and either read loop ends the lease after a
// TTL of silence — on the registrar an expiry, the failure-detector verdict
// the cluster runtime feeds into shrink/respawn recovery, as is a Revoke; a
// clean close is a leave.
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
	info  WorkerInfo
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
// OnFrame. A clean EOF is a leave; silence, a broken connection, a failed
// write and a revocation are an expiry — unless the registrar is closing.
func (r *Registrar) frameLoop(l *lease) {
	err := l.readLoop(func(tag int, payload []byte) {
		if r.cfg.OnFrame != nil {
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
// frame unread — a heartbeat, a data frame — would reset the connection and
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
		// The read loop ends at the coordinator's close.
		select {
		case <-l.readDone:
		case <-time.After(l.ttl):
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
