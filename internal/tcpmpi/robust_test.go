package tcpmpi

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSelfSendDoesNotAliasPayload: a self-delivered message must survive
// the caller mutating its buffer after Send returns.
func TestSelfSendDoesNotAliasPayload(t *testing.T) {
	c, err := Dial(0, []string{"unused"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := []byte("original")
	if err := c.Send(0, 3, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBERED")
	got, err := c.Recv(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("self-send aliased the caller's buffer: got %q", got)
	}
}

// TestRecvTimeout: with a per-operation deadline configured, a Recv for a
// message that never comes returns a timeout error instead of blocking
// forever, even while the peer is alive and heartbeating.
func TestRecvTimeout(t *testing.T) {
	addrs := freeAddrs(t, 2)
	opt := Options{Timeout: 250 * time.Millisecond}
	var wg sync.WaitGroup
	var recvErr error
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		c, err := DialOptions(0, addrs, opt)
		if err != nil {
			recvErr = err
			return
		}
		defer c.Close()
		start := time.Now()
		_, recvErr = c.Recv(1, 99)
		if recvErr != nil && time.Since(start) > 5*time.Second {
			recvErr = nil // an error that slow is a hang, not a deadline
		}
		close(stop)
	}()
	go func() {
		defer wg.Done()
		c, err := DialOptions(1, addrs, opt)
		if err != nil {
			return
		}
		defer c.Close()
		<-stop
	}()
	wg.Wait()
	if recvErr == nil || !strings.Contains(recvErr.Error(), "timeout") {
		t.Fatalf("want timeout error, got %v", recvErr)
	}
}

// TestDialRejectsSilentClient: a client that connects to the mesh listener
// but never sends its rank hello must not wedge world setup — the
// handshake read deadline (bounded by DialTimeout) discards it and Dial
// fails within the dial timeout instead of hanging forever.
func TestDialRejectsSilentClient(t *testing.T) {
	addrs := freeAddrs(t, 2)
	done := make(chan error, 1)
	go func() {
		c, err := DialOptions(0, addrs, Options{DialTimeout: 400 * time.Millisecond})
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	// Give rank 0 a moment to listen, then connect without a hello.
	var rogue net.Conn
	for i := 0; i < 100; i++ {
		var err error
		if rogue, err = net.Dial("tcp", addrs[0]); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rogue != nil {
		defer rogue.Close()
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Dial succeeded without rank 1 ever saying hello")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Dial hung on a client that never completed the handshake")
	}
}

// TestSilentPeerDetected: a peer that completes the handshake and then
// goes silent (wedged, not closed) is detected by the missing heartbeats
// within the configured bound, and pending receives fail instead of
// blocking forever.
func TestSilentPeerDetected(t *testing.T) {
	addrs := freeAddrs(t, 2)
	opt := Options{HeartbeatInterval: 50 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		c, err := DialOptions(0, addrs, opt)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		_, err = c.Recv(1, 7)
		done <- err
	}()
	// Fake rank 1: hello, then total silence with the connection held open.
	var conn net.Conn
	for i := 0; i < 200; i++ {
		var err error
		if conn, err = net.Dial("tcp", addrs[0]); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if conn == nil {
		t.Fatal("could not reach rank 0's listener")
	}
	defer conn.Close()
	var hello [helloLen]byte
	putHello(hello[:], helloMsg{rank: 1, flags: helloHeader8})
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var reply [replyLen]byte
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatalf("handshake reply: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv succeeded with no message")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("silent peer never detected")
	}
}

// TestSecondHelloRefused: each peer has one connection for the life of the
// Comm. A hello for a rank that is already connected is refused — closed
// without a reply — and the original connection keeps carrying traffic both
// ways.
func TestSecondHelloRefused(t *testing.T) {
	addrs := freeAddrs(t, 2)
	c0, c1 := dialPair(t, addrs, Options{Timeout: 10 * time.Second})
	defer c0.Close()
	defer c1.Close()

	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [helloLen]byte
	putHello(hello[:], helloMsg{rank: 1, flags: helloHeader8})
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var reply [replyLen]byte
	if _, err := io.ReadFull(conn, reply[:]); err == nil {
		t.Fatal("a second hello for rank 1 was answered")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("a second hello for rank 1 was neither answered nor refused")
	}

	if err := c1.Send(0, 3, []byte("up")); err != nil {
		t.Fatal(err)
	}
	if got, err := c0.Recv(1, 3); err != nil || string(got) != "up" {
		t.Fatalf("rank 1 → 0 after the refused hello: %q, %v", got, err)
	}
	if err := c0.Send(1, 4, []byte("down")); err != nil {
		t.Fatal(err)
	}
	if got, err := c1.Recv(0, 4); err != nil || string(got) != "down" {
		t.Fatalf("rank 0 → 1 after the refused hello: %q, %v", got, err)
	}
}

// TestOldWireHelloRefused: a dialer of the retired wire version writes
// 16-byte frame headers and so sends no helloHeader8 flag. A rank mesh and a
// registrar both close it at its hello without a reply, before a frame of
// its could be misread, and neither installs it.
func TestOldWireHelloRefused(t *testing.T) {
	refused := func(t *testing.T, addr string, h helloMsg) {
		t.Helper()
		var conn net.Conn
		for i := 0; i < 200; i++ {
			var err error
			if conn, err = net.Dial("tcp", addr); err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if conn == nil {
			t.Fatalf("could not reach %s", addr)
		}
		defer conn.Close()
		var hello [helloLen]byte
		putHello(hello[:], h)
		if _, err := conn.Write(hello[:]); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var reply [replyLen]byte
		if _, err := io.ReadFull(conn, reply[:]); err == nil {
			t.Fatalf("hello %+v was answered", h)
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("hello %+v was neither answered nor refused", h)
		}
	}
	t.Run("mesh", func(t *testing.T) {
		addrs := freeAddrs(t, 2)
		done := make(chan error, 1)
		go func() {
			c, err := DialOptions(0, addrs, Options{DialTimeout: time.Second})
			if err == nil {
				c.Close()
			}
			done <- err
		}()
		refused(t, addrs[0], helloMsg{rank: 1})
		if err := <-done; err == nil {
			t.Fatal("the mesh installed rank 1 from an old-wire hello")
		}
	})
	t.Run("registrar", func(t *testing.T) {
		ev := &leaseEvents{}
		reg, err := NewRegistrar("127.0.0.1:0", ev.config(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		refused(t, reg.Addr(), helloMsg{flags: helloRegister})
		refused(t, reg.Addr(), helloMsg{flags: helloClient})
		if j, _, _ := ev.counts(); j != 0 {
			t.Fatalf("%d old-wire registrations joined", j)
		}
	})
}

// TestCommCloseOwnsItsGoroutines: Close returns only after every goroutine
// the Comm started has exited — accept loop, read loops, heartbeat loop, and
// the handshake of a client that connected but never said hello.
func TestCommCloseOwnsItsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	addrs := freeAddrs(t, 2)
	c0, c1 := dialPair(t, addrs, Options{})
	if err := c1.Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Recv(1, 1); err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	waitFor(t, "the silent client's handshake", func() bool { return goroutinesIn("(*Comm).handshake") == 1 })

	c0.Close()
	c1.Close()
	if gs := stacksIn("(*Comm)"); len(gs) != 0 {
		t.Fatalf("%d Comm goroutines still running after Close returned:\n\n%s",
			len(gs), strings.Join(gs, "\n\n"))
	}
	backToBaseline(t, base)
}
