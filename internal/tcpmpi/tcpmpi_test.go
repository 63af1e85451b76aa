package tcpmpi

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
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
func goroutinesIn(fn string) int { return len(stacksIn(fn)) }

// stacksIn returns the stack of every live goroutine with a frame in a
// function of this package whose name contains fn. The "created by" line
// names the spawner, not a frame, and does not count. Nor does the frame that
// called sync.(*WaitGroup).Done, with everything it called: a goroutine that
// deferred wg.Done has returned from its body once Done is on its stack, and
// Done may release the Wait it pairs with before it returns itself.
func stacksIn(fn string) []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	want := "casvm/internal/tcpmpi." + fn
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		// Line 0 is the goroutine header; each frame is a function line
		// followed by a tab-indented file:line.
		var frames []string
		for _, ln := range strings.Split(g, "\n")[1:] {
			if !strings.HasPrefix(ln, "\t") && !strings.HasPrefix(ln, "created by ") {
				frames = append(frames, ln)
			}
		}
		for i, f := range frames {
			if strings.HasPrefix(f, "sync.(*WaitGroup).Done(") {
				frames = frames[min(i+2, len(frames)):]
				break
			}
		}
		for _, f := range frames {
			if strings.Contains(f, want) {
				out = append(out, g)
				break
			}
		}
	}
	return out
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

// TestSendRecv: a message arrives whole, stamped with the time its frame was
// read, not the time the receiver took it — the receive stamp of its flow
// edge, which must measure transit alone.
func TestSendRecv(t *testing.T) {
	world(t, 2, func(c *Comm) error {
		if c.rank == 0 {
			return c.Send(1, 5, []byte("over tcp"))
		}
		time.Sleep(50 * time.Millisecond)
		got, at, err := c.RecvAt(0, 5)
		if err != nil {
			return err
		}
		if string(got) != "over tcp" {
			return fmt.Errorf("got %q", got)
		}
		if held := time.Now().UnixNano() - at; at <= 0 || held < int64(10*time.Millisecond) {
			return fmt.Errorf("arrival stamp %d, %v before the take: stamped when taken", at, time.Duration(held))
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

// TestTimelineFlowEdges: an mpi world over the mesh, with a timeline on each
// process, records every delivered message as a flow edge on the receiver —
// carrying the sender's edge id, virtual clocks and wall time across the wire
// — and every collective as a span: the causal trace of an in-process world,
// recorded by internal/mpi alone.
func TestTimelineFlowEdges(t *testing.T) {
	machine := perfmodel.Hopper()
	tls := []*trace.Timeline{trace.NewTimeline(2), trace.NewTimeline(2)}
	for r, err := range onMesh(t, 2, Options{Timeout: 30 * time.Second}, func(comm *Comm) error {
		w := mpi.NewWorld(2, machine, 1)
		w.SetTimeline(tls[comm.rank])
		return w.RunLink(comm.rank, comm, func(c *mpi.Comm) error {
			c.Barrier()
			if c.Rank() == 0 {
				c.Send(1, 7, []byte("payload"))
				c.Recv(1, 8)
			} else {
				c.Recv(0, 7)
				c.Send(0, 8, []byte("ack"))
			}
			return nil
		})
	}) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	// Rank 1's timeline holds the barrier traffic plus the tag-7 payload;
	// find the payload edge and check its identity, costs and ordering.
	var got *trace.FlowEdge
	for _, e := range tls[1].FlowEdges() {
		if e.Tag == 7 {
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
		t.Fatalf("edge id %#x does not name sender rank %d", got.ID, got.Src)
	}
	if got.LatencySec != machine.Ts || got.BandwidthSec != machine.PtoP(got.Bytes)-machine.Ts {
		t.Fatalf("α–β split %v + %v, want %v + %v", got.LatencySec, got.BandwidthSec, machine.Ts, machine.PtoP(got.Bytes)-machine.Ts)
	}
	if got.SendVirtSec <= 0 || got.RecvVirtSec < got.SendVirtSec {
		t.Fatalf("virtual ordering: send=%v recv=%v", got.SendVirtSec, got.RecvVirtSec)
	}
	if got.SendWallNs <= 0 || got.RecvWallNs < got.SendWallNs {
		t.Fatalf("wall ordering: send=%d recv=%d", got.SendWallNs, got.RecvWallNs)
	}
	// The sender's latency segment names the edge the receiver recorded.
	named := false
	for _, sg := range tls[0].Segments()[0] {
		named = named || (sg.Kind == trace.SegLatency && sg.EdgeID == got.ID)
	}
	if !named {
		t.Fatalf("rank 0 recorded no latency segment for edge %#x", got.ID)
	}

	for r, tl := range tls {
		if v := tl.CausalityViolations(); v != 0 {
			t.Fatalf("rank %d: %d causality violations", r, v)
		}
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
