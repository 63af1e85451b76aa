package tcpmpi

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
)

// listeners opens n loopback mesh listeners and returns them with their
// addresses, to be handed to DialOptions — no port is released and rebound.
func listeners(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns, addrs := make([]net.Listener, n), make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs
}

// onMesh dials an n-rank mesh on handed-over listeners and runs f per rank,
// one goroutine and one Comm each; it returns the ranks' errors.
func onMesh(t *testing.T, n int, opt Options, f func(c *Comm) error) []error {
	t.Helper()
	lns, addrs := listeners(t, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			o := opt
			o.Listener = lns[rank]
			c, err := DialOptions(rank, addrs, o)
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			errs[rank] = f(c)
		}(r)
	}
	wg.Wait()
	return errs
}

// rankTrace is what one rank saw of a script of collectives: every result,
// its final virtual clock, and its row of the world's message/byte matrix.
type rankTrace struct {
	Results []string
	Clock   float64
	Ops     []int64
	Bytes   []int64
}

// everyCollective runs each collective internal/mpi has, once, with
// rank-dependent inputs and non-zero roots.
func everyCollective(c *mpi.Comm) ([]string, error) {
	p, r := c.Size(), c.Rank()
	var out []string
	rec := func(name string, v any) { out = append(out, fmt.Sprintf("%s=%v", name, v)) }
	c.Barrier()
	var in []byte
	if r == p-1 {
		in = []byte("payload")
	}
	rec("Bcast", c.Bcast(p-1, in))
	var blocks [][]byte
	if r == 0 {
		for d := 0; d < p; d++ {
			blocks = append(blocks, bytes.Repeat([]byte{byte(10 * d)}, d+1))
		}
	}
	rec("Scatterv", c.Scatterv(0, blocks))
	mine := bytes.Repeat([]byte{byte(r + 1)}, 2*r+1)
	rec("Gatherv", c.Gatherv(p/2, mine))
	rec("Allgatherv", c.Allgatherv(mine))
	to := make([][]byte, p)
	for d := range to {
		to[d] = []byte{byte(r), byte(d)}
	}
	rec("Alltoallv", c.Alltoallv(to))
	x := []float64{float64(r), 1.5, -float64(r * r)}
	rec("AllreduceSum", c.AllreduceSum(x))
	rec("AllreduceMin", c.AllreduceMin(x))
	rec("AllreduceMax", c.AllreduceMax(x))
	rec("AllreduceMinLoc", c.AllreduceMinLoc(float64((r+2)%p), 100+r))
	rec("AllreduceMaxLoc", c.AllreduceMaxLoc(float64((r+2)%p), 100+r))
	folded, err := c.AllreduceBytes([]byte{byte(r), byte(p - r)}, func(acc, in []byte) ([]byte, error) {
		for i := range acc {
			if in[i] > acc[i] {
				acc[i] = in[i]
			}
		}
		return acc, nil
	})
	rec("AllreduceBytes", folded)
	return out, err
}

// traceOf runs the script as one rank and collects its trace from the world
// it ran in.
func traceOf(w *mpi.World, c *mpi.Comm) (rankTrace, error) {
	res, err := everyCollective(c)
	tr := rankTrace{Results: res, Clock: c.Clock()}
	for d := 0; d < c.Size(); d++ {
		tr.Ops = append(tr.Ops, w.Stats().Ops(c.Rank(), d))
		tr.Bytes = append(tr.Bytes, w.Stats().Bytes(c.Rank(), d))
	}
	return tr, err
}

// TestCollectivesEqualOnBothLinks: every collective gives every rank the same
// result, the same virtual clock and the same per-destination message and
// byte counts whether the world's ranks share mailboxes or a TCP mesh. The
// collectives exist once, in internal/mpi; this is what that buys.
func TestCollectivesEqualOnBothLinks(t *testing.T) {
	machine := perfmodel.Hopper()
	for _, n := range []int{1, 2, 3, 5} {
		inproc := make([]rankTrace, n)
		w := mpi.NewWorld(n, machine, 7)
		if err := w.Run(func(c *mpi.Comm) (err error) {
			inproc[c.Rank()], err = traceOf(w, c)
			return err
		}); err != nil {
			t.Fatalf("P=%d in-process: %v", n, err)
		}
		overTCP := make([]rankTrace, n)
		for r, err := range onMesh(t, n, Options{Timeout: 30 * time.Second}, func(comm *Comm) error {
			w := mpi.NewWorld(n, machine, 7)
			return w.RunLink(comm.rank, comm, func(c *mpi.Comm) (err error) {
				overTCP[c.Rank()], err = traceOf(w, c)
				return err
			})
		}) {
			if err != nil {
				t.Fatalf("P=%d rank %d over TCP: %v", n, r, err)
			}
		}
		for r := range inproc {
			if !reflect.DeepEqual(inproc[r], overTCP[r]) {
				t.Errorf("P=%d rank %d:\n in-process %+v\n over TCP   %+v", n, r, inproc[r], overTCP[r])
			}
		}
	}
}

// TestMeshOnHandedListeners: a mesh dialed on listeners that were opened
// once and handed over comes up every time, while another goroutine binds
// and releases loopback ports as fast as it can — the neighbour that used to
// win the port between a worker's reserve and its rebind.
func TestMeshOnHandedListeners(t *testing.T) {
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
				ln.Close()
			}
		}
	}()
	defer churn.Wait()
	defer close(stop)
	rounds := 25
	if testing.Short() {
		rounds = 5
	}
	for i := 0; i < rounds; i++ {
		for r, err := range onMesh(t, 3, Options{Timeout: 30 * time.Second}, func(c *Comm) error {
			sum, err := c.AllreduceSum([]float64{1})
			if err == nil && sum[0] != 3 {
				err = fmt.Errorf("sum %v", sum)
			}
			return err
		}) {
			if err != nil {
				t.Fatalf("round %d rank %d: %v", i, r, err)
			}
		}
	}
}

// TestPeerCloseIsLinkError: a peer that leaves in the middle of a run of
// AllreduceBytes fails every survivor with a typed *mpi.LinkError within
// Options.Timeout — no hang, and no untyped "rank panicked".
func TestPeerCloseIsLinkError(t *testing.T) {
	const timeout = 2 * time.Second
	rounds := func(c *mpi.Comm, n int) error {
		for i := 0; n < 0 || i < n; i++ {
			if _, err := c.AllreduceBytes([]byte{byte(c.Rank())}, func(acc, in []byte) ([]byte, error) {
				return acc, nil
			}); err != nil {
				return err
			}
		}
		return nil
	}
	start := time.Now()
	errs := onMesh(t, 3, Options{Timeout: timeout}, func(comm *Comm) error {
		w := mpi.NewWorld(3, perfmodel.Hopper(), 1)
		return w.RunLink(comm.rank, comm, func(c *mpi.Comm) error {
			if c.Rank() == 2 {
				return rounds(c, 3) // then its Comm closes under the others
			}
			return rounds(c, -1)
		})
	})
	// One timeout is the expected cost; the slack is for a busy host. A
	// survivor that missed the timeout would sit out the 20 s reconnect
	// budget instead.
	if took := time.Since(start); took > 5*timeout {
		t.Fatalf("survivors took %v to notice, Options.Timeout is %v", took, timeout)
	}
	if errs[2] != nil {
		t.Fatalf("leaving rank: %v", errs[2])
	}
	for _, r := range []int{0, 1} {
		var le *mpi.LinkError
		if !errors.As(errs[r], &le) {
			t.Fatalf("survivor %d: %v, want *mpi.LinkError", r, errs[r])
		}
	}
}
