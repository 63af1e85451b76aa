package tcpmpi

import (
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// leaseEvents collects registrar callbacks for assertions.
type leaseEvents struct {
	mu      sync.Mutex
	joins   []WorkerInfo
	expiry  []WorkerInfo
	leaves  []WorkerInfo
	frames  []int // tags received
	payload [][]byte
}

func (e *leaseEvents) config(ttl time.Duration) RegistrarConfig {
	return RegistrarConfig{
		LeaseTTL: ttl,
		OnJoin: func(w WorkerInfo) {
			e.mu.Lock()
			e.joins = append(e.joins, w)
			e.mu.Unlock()
		},
		OnExpire: func(w WorkerInfo) {
			e.mu.Lock()
			e.expiry = append(e.expiry, w)
			e.mu.Unlock()
		},
		OnLeave: func(w WorkerInfo) {
			e.mu.Lock()
			e.leaves = append(e.leaves, w)
			e.mu.Unlock()
		},
		OnFrame: func(w WorkerInfo, tag int, payload []byte) {
			e.mu.Lock()
			e.frames = append(e.frames, tag)
			e.payload = append(e.payload, payload)
			e.mu.Unlock()
		},
	}
}

func (e *leaseEvents) counts() (joins, expiry, leaves int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.joins), len(e.expiry), len(e.leaves)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLeaseLifecycle: register, heartbeat past several TTLs (the lease must
// survive), exchange control frames both ways, then close cleanly — a
// leave, not an expiry.
func TestLeaseLifecycle(t *testing.T) {
	ev := &leaseEvents{}
	reg, err := NewRegistrar("localhost:0", ev.config(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	l, err := Register(reg.Addr(), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l.ttl != 300*time.Millisecond {
		t.Fatalf("TTL=%v, want 300ms", l.ttl)
	}
	waitFor(t, "join callback", func() bool { j, _, _ := ev.counts(); return j == 1 })
	if ws := reg.Workers(); len(ws) != 1 || ws[0].ID != l.ID() || ws[0].Client {
		t.Fatalf("Workers()=%v, want one worker with id %d", ws, l.ID())
	}

	// Heartbeats (TTL/3 cadence) must carry the lease well past its TTL.
	time.Sleep(4 * l.ttl)
	if _, ex, lv := ev.counts(); ex != 0 || lv != 0 {
		t.Fatalf("lease fell over while heartbeating: expiries=%d leaves=%d", ex, lv)
	}

	// Control frames: worker -> coordinator and back.
	if err := l.Send(7, []byte("job please")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker frame", func() bool {
		ev.mu.Lock()
		defer ev.mu.Unlock()
		return len(ev.frames) == 1 && ev.frames[0] == 7 && string(ev.payload[0]) == "job please"
	})
	if err := reg.Send(l.ID(), 8, []byte("granted")); err != nil {
		t.Fatal(err)
	}
	b, err := l.Recv(8, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "granted" {
		t.Fatalf("worker received %q", b)
	}

	l.Close()
	waitFor(t, "leave callback", func() bool { _, ex, lv := ev.counts(); return lv == 1 && ex == 0 })
	if ws := reg.Workers(); len(ws) != 0 {
		t.Fatalf("worker still listed after leave: %v", ws)
	}
}

// TestRecvTimeoutOnQuietLease: Recv and RecvAny must honor their timeout
// with no other traffic on the lease — the deadline timer alone wakes the
// waiter. Regression for a lost wakeup: the timer's broadcast used to run
// without l.mu and could land between a waiter's deadline check and its
// park, leaving the call blocked until unrelated frames arrived.
func TestRecvTimeoutOnQuietLease(t *testing.T) {
	ev := &leaseEvents{}
	reg, err := NewRegistrar("localhost:0", ev.config(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	l, err := Register(reg.Addr(), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := l.Recv(42, 20*time.Millisecond); err == nil {
			t.Fatal("Recv on a quiet lease returned a frame")
		}
		if _, _, err := l.RecvAny([]int{42, 43}, 20*time.Millisecond); err == nil {
			t.Fatal("RecvAny on a quiet lease returned a frame")
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("timeouts took %v; a deadline wakeup was lost", el)
		}
	}
}

// TestLeaseExpiry: a worker that stops heartbeating (simulated by a raw
// registration that never sends frames) expires within the TTL and is
// reported as an expiry, not a leave.
func TestLeaseExpiry(t *testing.T) {
	ev := &leaseEvents{}
	reg, err := NewRegistrar("localhost:0", ev.config(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// Raw registration: hello, read the reply, then go silent with the
	// connection held open — a wedged worker.
	conn, err := net.Dial("tcp", reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [helloLen]byte
	putHello(hello[:], helloMsg{flags: helloRegister | helloHeader8})
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var reply [replyLen]byte
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "lease expiry", func() bool { _, ex, _ := ev.counts(); return ex == 1 })
	if _, _, lv := ev.counts(); lv != 0 {
		t.Fatalf("silent worker reported as clean leave (%d leaves)", lv)
	}
	if ws := reg.Workers(); len(ws) != 0 {
		t.Fatalf("expired worker still listed: %v", ws)
	}
}

// TestLeaseRevoke: an admin revocation force-expires the lease; the worker
// side observes the lease ending.
func TestLeaseRevoke(t *testing.T) {
	ev := &leaseEvents{}
	reg, err := NewRegistrar("localhost:0", ev.config(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	l, err := Register(reg.Addr(), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := reg.Revoke(l.ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "revocation expiry", func() bool { _, ex, _ := ev.counts(); return ex == 1 })
	select {
	case <-l.done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never noticed the revocation")
	}
	if l.Err() == nil {
		t.Fatal("ended lease reports nil error")
	}
}

// registerRaw completes a worker registration by hand and returns the
// connection and the assigned lease id. The caller decides what the worker
// does next.
func registerRaw(t *testing.T, addr string) (net.Conn, int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var hello [helloLen]byte
	putHello(hello[:], helloMsg{flags: helloRegister | helloHeader8})
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var reply [replyLen]byte
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatal(err)
	}
	id, _, err := parseLeaseReply(reply[:])
	if err != nil {
		t.Fatal(err)
	}
	return conn, id
}

// TestConcurrentSendToStalledWorker: four coordinator goroutines send 8 MiB
// frames at once to a worker that heartbeats but never reads. Each Send must
// fail within two TTLs: one sender's write deadline must not be cleared by
// another's, and the first failed write ends the lease for the rest.
func TestConcurrentSendToStalledWorker(t *testing.T) {
	const ttl = 300 * time.Millisecond
	reg, err := NewRegistrar("127.0.0.1:0", RegistrarConfig{LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	conn, id := registerRaw(t, reg.Addr())
	stop := make(chan struct{})
	defer close(stop)
	go func() { // heartbeats keep the lease alive; nothing is ever read
		hb := frameBytes(hbTag, nil)
		for {
			select {
			case <-stop:
				return
			case <-time.After(ttl / 3):
			}
			if _, err := conn.Write(hb); err != nil {
				return
			}
		}
	}()

	payload := make([]byte, 8<<20)
	start := time.Now()
	type result struct {
		err  error
		took time.Duration
	}
	results := make(chan result, 4)
	for i := 0; i < 4; i++ {
		go func() {
			err := reg.Send(id, 7, payload)
			results <- result{err, time.Since(start)}
		}()
	}
	for i := 0; i < 4; i++ {
		select {
		case res := <-results:
			if res.err == nil {
				t.Error("an 8 MiB frame to a worker that never reads was sent")
			}
			if res.took > 2*ttl {
				t.Errorf("a Send returned after %v, want within %v", res.took, 2*ttl)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 4 Sends still blocked after 10s", 4-i)
		}
	}
}

// silentCoordinator accepts one registration, answers it with the given
// TTL in milliseconds, and then holds the connection open without writing.
func silentCoordinator(t *testing.T, ttlMillis uint32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan net.Conn, 1)
	t.Cleanup(func() {
		ln.Close()
		select {
		case conn := <-held:
			conn.Close()
		default:
		}
	})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		held <- conn
		var hello [helloLen]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return
		}
		var reply [replyLen]byte
		putLeaseReply(reply[:], 0, ttlMillis)
		conn.Write(reply[:])
	}()
	return ln.Addr().String()
}

// TestLeaseEndsWhenCoordinatorSilent: a coordinator that completes the
// registration and then sends nothing — a stopped process holding its
// connection open — ends the worker's lease within two TTLs, and the
// lease's error names the silence. A reply whose TTL could not be a read
// deadline is refused.
func TestLeaseEndsWhenCoordinatorSilent(t *testing.T) {
	const ttl = 300 * time.Millisecond
	l, err := Register(silentCoordinator(t, uint32(ttl.Milliseconds())), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	start := time.Now()
	select {
	case <-l.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the lease outlived a silent coordinator")
	}
	if took := time.Since(start); took > 2*ttl {
		t.Errorf("the lease ended %v after registering, want within %v", took, 2*ttl)
	}
	if err := l.Err(); err == nil || !strings.Contains(err.Error(), "silent") {
		t.Fatalf("Err() = %v, want it to name the silence", err)
	}

	for _, ms := range []uint32{0, uint32(maxLeaseTTL.Milliseconds()) + 1} {
		if l, err := Register(silentCoordinator(t, ms), RegisterOptions{}); err == nil {
			l.Close()
			t.Errorf("a registration reply with a %dms TTL was accepted", ms)
		}
	}
}

// TestClientRegistration: a client lease registers and exchanges frames but
// is never listed as worker capacity.
func TestClientRegistration(t *testing.T) {
	ev := &leaseEvents{}
	reg, err := NewRegistrar("localhost:0", ev.config(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	cl, err := Register(reg.Addr(), RegisterOptions{Client: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "client join", func() bool { j, _, _ := ev.counts(); return j == 1 })
	ev.mu.Lock()
	isClient := ev.joins[0].Client
	ev.mu.Unlock()
	if !isClient {
		t.Fatal("client registration not flagged Client")
	}
	if ws := reg.Workers(); len(ws) != 0 {
		t.Fatalf("client counted as worker capacity: %v", ws)
	}
}

// TestMeshRejectsRegistrationHello: a worker that mistakenly dials a rank
// mesh listener with a registration hello is dropped, not installed as a
// bogus peer.
func TestMeshRejectsRegistrationHello(t *testing.T) {
	addrs := freeAddrs(t, 2)
	done := make(chan error, 1)
	go func() {
		c, err := DialOptions(0, addrs, Options{DialTimeout: 500 * time.Millisecond})
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	var conn net.Conn
	for i := 0; i < 200; i++ {
		var err error
		if conn, err = net.Dial("tcp", addrs[0]); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if conn == nil {
		t.Fatal("could not reach rank 0's listener")
	}
	defer conn.Close()
	var hello [helloLen]byte
	putHello(hello[:], helloMsg{rank: 1, flags: helloRegister | helloHeader8})
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	// The mesh must reject the hello: rank 1 never appears, Dial times out.
	if err := <-done; err == nil {
		t.Fatal("mesh accepted a registration hello as rank 1's handshake")
	}
}

// TestLeaseCloseDeliversQueuedFrames: frames a worker sent before Close
// reach the coordinator even when it reads them only after Close returned
// and the coordinator's data frames keep arriving at the worker meanwhile,
// and the end is a leave. A close that reset the connection dropped them.
func TestLeaseCloseDeliversQueuedFrames(t *testing.T) {
	for round := range 5 {
		gate := make(chan struct{})
		ev := &leaseEvents{}
		cfg := ev.config(2 * time.Second)
		onFrame := cfg.OnFrame
		cfg.OnFrame = func(w WorkerInfo, tag int, payload []byte) {
			<-gate
			onFrame(w, tag, payload)
		}
		reg, err := NewRegistrar("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Register(reg.Addr(), RegisterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "join", func() bool { j, _, _ := ev.counts(); return j == 1 })
		stop := make(chan struct{})
		sending := make(chan struct{})
		go func() {
			defer close(sending)
			for {
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond):
					reg.Send(l.ID(), 99, make([]byte, 16))
				}
			}
		}()
		const frames = 8
		for i := range frames {
			if err := l.Send(10+i, make([]byte, 16<<10)); err != nil {
				t.Fatal(err)
			}
		}
		closed := make(chan struct{})
		go func() {
			l.Close()
			close(closed)
		}()
		time.Sleep(50 * time.Millisecond)
		close(gate)
		<-closed
		waitFor(t, "leave or expiry", func() bool { _, ex, lv := ev.counts(); return ex+lv == 1 })
		close(stop)
		<-sending
		reg.Close()
		ev.mu.Lock()
		got := append([]int(nil), ev.frames...)
		ev.mu.Unlock()
		if _, ex, _ := ev.counts(); ex != 0 || len(got) != frames {
			t.Fatalf("round %d: %d of %d frames arrived, expiries %d", round, len(got), frames, ex)
		}
		for i, tag := range got {
			if tag != 10+i {
				t.Fatalf("round %d: frame %d has tag %d, want %d", round, i, tag, 10+i)
			}
		}
	}
}

// TestRegistrarCloseOwnsItsGoroutines: Close returns only after every
// goroutine the registrar started has exited, so no callback is running or
// fires once it has returned, a client that connected before Close but said
// hello only after it is never admitted, and the goroutine count is back at
// its baseline. (No callback in this repository calls Close, which would
// deadlock: the coordinator and the launcher close from their own
// goroutines.)
func TestRegistrarCloseOwnsItsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var running, late atomic.Int32
	var closed atomic.Bool
	enter := func() {
		if closed.Load() {
			late.Add(1)
		}
		running.Add(1)
	}
	framing := make(chan struct{}, 1)
	reg, err := NewRegistrar("127.0.0.1:0", RegistrarConfig{
		LeaseTTL: time.Minute,
		OnJoin:   func(WorkerInfo) { enter(); running.Add(-1) },
		OnLeave:  func(WorkerInfo) { enter(); running.Add(-1) },
		OnFrame: func(WorkerInfo, int, []byte) {
			enter()
			defer running.Add(-1)
			framing <- struct{}{}
			time.Sleep(100 * time.Millisecond) // still running when Close is called
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Raw connections keep Lease goroutines out of the count: one parked
	// before its hello, one registered and mid-frame.
	parked, err := net.Dial("tcp", reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer parked.Close()
	worker, err := net.Dial("tcp", reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	var hello [helloLen]byte
	putHello(hello[:], helloMsg{flags: helloRegister | helloHeader8})
	if _, err := worker.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var reply [replyLen]byte
	worker.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(worker, reply[:]); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameHeaderLen)
	putFrameHeader(frame, 7, 0)
	if _, err := worker.Write(frame); err != nil {
		t.Fatal(err)
	}
	<-framing

	reg.Close()
	closed.Store(true)
	if n := running.Load(); n != 0 {
		t.Fatalf("%d callbacks still running after Close returned", n)
	}
	if _, err := parked.Write(hello[:]); err == nil {
		parked.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(parked, reply[:]); err == nil {
			t.Fatal("a closed registrar answered a registration")
		}
	}
	if n := late.Load(); n != 0 {
		t.Fatalf("%d callbacks fired after Close returned", n)
	}
	if n := goroutinesIn("(*Registrar)"); n != 0 {
		t.Fatalf("%d Registrar goroutines still running after Close returned", n)
	}
	backToBaseline(t, base)
}
