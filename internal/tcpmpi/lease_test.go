package tcpmpi

import (
	"io"
	"net"
	"sync"
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
	putHello(hello[:], helloMsg{flags: helloRegister})
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
	case <-l.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("worker never noticed the revocation")
	}
	if l.Err() == nil {
		t.Fatal("ended lease reports nil error")
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
	putHello(hello[:], helloMsg{rank: 1, flags: helloRegister})
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	// The mesh must reject the hello: rank 1 never appears, Dial times out.
	if err := <-done; err == nil {
		t.Fatal("mesh accepted a registration hello as rank 1's handshake")
	}
}

// TestJitterBounded: reconnect backoff jitter stays inside [0, ceiling],
// and a zero ceiling yields zero.
func TestJitterBounded(t *testing.T) {
	max := 50 * time.Millisecond
	for i := 0; i < 32; i++ {
		if d := jitter(max); d < 0 || d > max {
			t.Fatalf("jitter %v outside [0, %v]", d, max)
		}
	}
	if jitter(0) != 0 {
		t.Fatal("zero ceiling must yield zero jitter")
	}
}

// TestProbeClock runs the NTP-style clock probe against a live worker
// lease: the offset of two processes sharing one machine clock must come
// out near zero with a sane RTT, probe frames must stay invisible to
// OnFrame, and ordinary control traffic must keep flowing afterwards.
func TestProbeClock(t *testing.T) {
	ev := &leaseEvents{}
	reg, err := NewRegistrar("127.0.0.1:0", ev.config(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	l, err := Register(reg.Addr(), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	waitFor(t, "join", func() bool { j, _, _ := ev.counts(); return j == 1 })

	est, err := reg.ProbeClock(l.ID(), 5, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples < 1 || est.Samples > 5 {
		t.Fatalf("samples = %d, want 1..5", est.Samples)
	}
	if est.RTTNs < 0 || est.RTTNs > int64(2*time.Second) {
		t.Fatalf("rtt = %v, want a sane loopback round trip", time.Duration(est.RTTNs))
	}
	// Same machine, same clock: |offset| must be far below the probe
	// timeout. Loopback scheduling noise keeps it well under a second.
	if off := est.OffsetNs; off < -int64(time.Second) || off > int64(time.Second) {
		t.Fatalf("same-host offset = %v, want ~0", time.Duration(off))
	}

	// Probe traffic must not leak into the control channel.
	ev.mu.Lock()
	frames := len(ev.frames)
	ev.mu.Unlock()
	if frames != 0 {
		t.Fatalf("probe leaked %d frames into OnFrame", frames)
	}

	// The lease still carries ordinary control frames in both directions.
	if err := l.Send(7, []byte("up")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "control frame", func() bool {
		ev.mu.Lock()
		defer ev.mu.Unlock()
		return len(ev.frames) == 1 && ev.frames[0] == 7
	})
	if err := reg.Send(l.ID(), 9, []byte("down")); err != nil {
		t.Fatal(err)
	}
	if b, err := l.Recv(9, 5*time.Second); err != nil || string(b) != "down" {
		t.Fatalf("recv after probe: %q, %v", b, err)
	}

	// Unknown lease id errors instead of hanging.
	if _, err := reg.ProbeClock(999, 1, 100*time.Millisecond); err == nil {
		t.Fatal("probe of unknown lease must error")
	}
}
