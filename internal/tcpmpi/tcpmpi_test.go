package tcpmpi

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"casvm/internal/trace"
)

// freeAddrs reserves n distinct localhost ports and returns their
// addresses (released just before use; a tiny race window is acceptable in
// tests).
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// world spins up n Comms in-process (one goroutine each) and runs f per
// rank.
func world(t *testing.T, n int, f func(c *Comm) error) {
	t.Helper()
	addrs := freeAddrs(t, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := Dial(rank, addrs)
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			errs[rank] = f(c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// dialPair brings up a 2-rank world concurrently and returns both Comms.
func dialPair(t *testing.T, addrs []string, opt Options) (*Comm, *Comm) {
	t.Helper()
	var wg sync.WaitGroup
	comms := make([]*Comm, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comms[rank], errs[rank] = DialOptions(rank, addrs, opt)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	return comms[0], comms[1]
}

// goroutinesIn counts the live goroutines running a function of this
// package whose name contains fn, e.g. "(*Comm)" for any Comm method.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("casvm/internal/tcpmpi."+fn)) {
			n++
		}
	}
	return n
}

// backToBaseline fails unless the goroutine count returns to base. It polls
// briefly: the runtime's finalizer goroutine counts while it runs, and
// closed sockets give it work.
func backToBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d at the start", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSendRecv(t *testing.T) {
	world(t, 2, func(c *Comm) error {
		if c.rank == 0 {
			return c.Send(1, 5, []byte("over tcp"))
		}
		got, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(got) != "over tcp" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	world(t, 2, func(c *Comm) error {
		if c.rank == 0 {
			if err := c.Send(1, 1, []byte("a")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("b"))
		}
		b, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		a, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(a) != "a" || string(b) != "b" {
			return fmt.Errorf("a=%q b=%q", a, b)
		}
		return nil
	})
}

func TestAllreduceSum(t *testing.T) {
	world(t, 4, func(c *Comm) error {
		out, err := c.AllreduceSum([]float64{1, float64(c.rank)})
		if err != nil {
			return err
		}
		if out[0] != 4 || out[1] != 6 {
			return fmt.Errorf("got %v", out)
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	world(t, 4, func(c *Comm) error { return c.Barrier() })
}

// TestPeerDisconnectFailsReceivers: a peer that closes fails a receive
// pending on it at once — the broken connection is the verdict; nothing
// waits for the peer to come back.
func TestPeerDisconnectFailsReceivers(t *testing.T) {
	addrs := freeAddrs(t, 2)
	opt := Options{Timeout: 30 * time.Second}
	start := time.Now()
	var wg sync.WaitGroup
	var recvErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		c, err := DialOptions(0, addrs, opt)
		if err != nil {
			recvErr = err
			return
		}
		// Peer closes; our pending Recv must fail rather than hang.
		_, recvErr = c.Recv(1, 9)
		c.Close()
	}()
	go func() {
		defer wg.Done()
		c, err := DialOptions(1, addrs, opt)
		if err != nil {
			return
		}
		c.Close()
	}()
	wg.Wait()
	if recvErr == nil {
		t.Fatal("Recv should fail when the peer disconnects")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the receiver took %v to notice a closed peer", took)
	}
	if !strings.Contains(recvErr.Error(), "rank 1") {
		t.Fatalf("error does not name the lost rank: %v", recvErr)
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(5, []string{"127.0.0.1:0"}); err == nil {
		t.Fatal("out-of-range rank should fail")
	}
	// Single-rank world needs no network at all.
	c, err := Dial(0, []string{"unused"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(0, 1, []byte("self")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv(0, 1)
	if err != nil || string(got) != "self" {
		t.Fatalf("self roundtrip: %q %v", got, err)
	}
	c.Close()
}

// TestTimelineFlowEdges: with Options.Timeline, every delivered data frame
// leaves a wall-clock flow edge on the receiver, and collectives leave
// spans — the real-transport mirror of internal/mpi's causal trace.
func TestTimelineFlowEdges(t *testing.T) {
	addrs := freeAddrs(t, 2)
	tls := []*trace.Timeline{trace.NewTimeline(2), trace.NewTimeline(2)}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := DialOptions(rank, addrs, Options{Timeline: tls[rank]})
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			if err := c.Barrier(); err != nil {
				errs[rank] = err
				return
			}
			if rank == 0 {
				if err := c.Send(1, 7, []byte("payload")); err != nil {
					errs[rank] = err
					return
				}
				_, errs[rank] = c.Recv(1, 8)
			} else {
				if _, err := c.Recv(0, 7); err != nil {
					errs[rank] = err
					return
				}
				errs[rank] = c.Send(0, 8, []byte("ack"))
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	// Rank 1's world saw the barrier traffic plus the tag-7 payload; find
	// the payload edge and check its identity and wall ordering.
	var got *trace.FlowEdge
	for _, e := range tls[1].FlowEdges() {
		if e.Tag == 7 {
			e := e
			got = &e
		}
	}
	if got == nil {
		t.Fatalf("no tag-7 flow edge on rank 1: %+v", tls[1].FlowEdges())
	}
	if got.Src != 0 || got.Dst != 1 || got.Bytes != len("payload") {
		t.Fatalf("edge: %+v", got)
	}
	if got.ID>>40 != int64(got.Src+1) {
		t.Fatalf("edge id %d does not encode src %d", got.ID, got.Src)
	}
	if got.SendWallNs <= 0 || got.RecvWallNs < got.SendWallNs {
		t.Fatalf("wall ordering: send=%d recv=%d", got.SendWallNs, got.RecvWallNs)
	}
	if tls[1].CausalityViolations() != 0 {
		t.Fatalf("wall-only edges must not trip the virtual causality counter")
	}

	// Both ranks recorded the Barrier collective span.
	for r, tl := range tls {
		found := false
		for _, ev := range tl.Events() {
			if ev.Cat == trace.CatCollective && ev.Name == "Barrier" {
				found = true
			}
		}
		if !found {
			t.Fatalf("rank %d: no Barrier span", r)
		}
	}
}
