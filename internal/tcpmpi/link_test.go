package tcpmpi

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
	"casvm/internal/trace"
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
	to := make([][]byte, p)
	for d := range to {
		to[d] = []byte{byte(r), byte(d)}
	}
	rec("Alltoallv", c.Alltoallv(to))
	rec("AllreduceSum", c.AllreduceSum([]float64{float64(r), 1.5, -float64(r * r)}))
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

// flowsAt returns the flow edges rank recorded in tl, each without its id and
// wall times (which differ between runs and transports), in a canonical order.
func flowsAt(tl *trace.Timeline, rank int) []string {
	var out []string
	for _, e := range tl.FlowEdges() {
		if e.Dst == rank {
			e.ID, e.SendWallNs, e.RecvWallNs = 0, 0, 0
			out = append(out, fmt.Sprintf("%+v", e))
		}
	}
	sort.Strings(out)
	return out
}

// TestCollectivesEqualOnBothLinks: every collective gives every rank the same
// result, the same virtual clock, the same per-destination message and byte
// counts, and the same flow edges (source, tag, bytes, virtual send and
// receive times, α–β split) whether the world's ranks share mailboxes or a
// TCP mesh. The collectives and their causal record exist once, in
// internal/mpi; this is what that buys. Over TCP every segment's edge id
// names an edge some rank recorded, so the processes' traces stitch.
func TestCollectivesEqualOnBothLinks(t *testing.T) {
	machine := perfmodel.Hopper()
	for _, n := range []int{1, 2, 3, 5} {
		inproc := make([]rankTrace, n)
		w := mpi.NewWorld(n, machine, 7)
		tl := trace.NewTimeline(n)
		w.SetTimeline(tl)
		if err := w.Run(func(c *mpi.Comm) (err error) {
			inproc[c.Rank()], err = traceOf(w, c)
			return err
		}); err != nil {
			t.Fatalf("P=%d in-process: %v", n, err)
		}
		overTCP := make([]rankTrace, n)
		tls := make([]*trace.Timeline, n)
		for r, err := range onMesh(t, n, Options{Timeout: 30 * time.Second}, func(comm *Comm) error {
			w := mpi.NewWorld(n, machine, 7)
			tls[comm.rank] = trace.NewTimeline(n)
			w.SetTimeline(tls[comm.rank])
			return w.RunLink(comm.rank, comm, func(c *mpi.Comm) (err error) {
				overTCP[c.Rank()], err = traceOf(w, c)
				return err
			})
		}) {
			if err != nil {
				t.Fatalf("P=%d rank %d over TCP: %v", n, r, err)
			}
		}
		recorded := map[int64]bool{}
		for _, tl := range tls {
			for _, e := range tl.FlowEdges() {
				recorded[e.ID] = true
			}
		}
		for r := range inproc {
			if !reflect.DeepEqual(inproc[r], overTCP[r]) {
				t.Errorf("P=%d rank %d:\n in-process %+v\n over TCP   %+v", n, r, inproc[r], overTCP[r])
			}
			if want, got := flowsAt(tl, r), flowsAt(tls[r], r); !reflect.DeepEqual(want, got) {
				t.Errorf("P=%d rank %d flow edges:\n in-process %v\n over TCP   %v", n, r, want, got)
			}
			if n > 1 && len(flowsAt(tls[r], r)) == 0 {
				t.Errorf("P=%d rank %d recorded no flow edge over TCP", n, r)
			}
			for _, sg := range tls[r].Segments()[r] {
				if sg.EdgeID != 0 && !recorded[sg.EdgeID] {
					t.Errorf("P=%d rank %d: segment %+v names no recorded edge", n, r, sg)
				}
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

// allreduceRounds runs n AllreduceBytes rounds (n < 0: until one fails),
// counting completed rounds in done when it is non-nil.
func allreduceRounds(c *mpi.Comm, n int, done *atomic.Int64) error {
	for i := 0; n < 0 || i < n; i++ {
		if _, err := c.AllreduceBytes([]byte{byte(c.Rank())}, func(acc, in []byte) ([]byte, error) {
			return acc, nil
		}); err != nil {
			return err
		}
		if done != nil {
			done.Add(1)
		}
	}
	return nil
}

// TestPeerCloseIsLinkError: a peer that leaves in the middle of a run of
// AllreduceBytes fails every survivor with a typed *mpi.LinkError at once —
// well inside Options.Timeout, with no hang and no untyped "rank panicked".
func TestPeerCloseIsLinkError(t *testing.T) {
	const timeout = 30 * time.Second
	start := time.Now()
	errs := onMesh(t, 3, Options{Timeout: timeout}, func(comm *Comm) error {
		w := mpi.NewWorld(3, perfmodel.Hopper(), 1)
		return w.RunLink(comm.rank, comm, func(c *mpi.Comm) error {
			if c.Rank() == 2 {
				return allreduceRounds(c, 3, nil) // then its Comm closes under the others
			}
			return allreduceRounds(c, -1, nil)
		})
	})
	// The closed connection is the verdict: nothing waits out a deadline.
	if took := time.Since(start); took > timeout/10 {
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

// meshRankEnv, set, makes TestMeshRankHelper rank 0 of
// TestKilledRankIsLinkError's mesh.
const meshRankEnv = "CASVM_TCPMPI_RANK0"

// TestMeshRankHelper is the re-exec entry point for
// TestKilledRankIsLinkError: with meshRankEnv set, this "test" is rank 0 of a
// 3-rank mesh in its own process. It prints its listener's address, then
// runs AllreduceBytes rounds until it is killed.
func TestMeshRankHelper(t *testing.T) {
	if os.Getenv(meshRankEnv) == "" {
		t.Skip("re-exec helper for TestKilledRankIsLinkError")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("mesh-addr %s\n", ln.Addr())
	// Rank 0 dials nobody: the other ranks' addresses are never read.
	comm, err := DialOptions(0, []string{ln.Addr().String(), "", ""},
		Options{Timeout: 30 * time.Second, Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer comm.Close()
	w := mpi.NewWorld(3, perfmodel.Hopper(), 1)
	t.Log(w.RunLink(0, comm, func(c *mpi.Comm) error { return allreduceRounds(c, -1, nil) }))
}

// TestKilledRankIsLinkError: rank 0 of a 3-rank mesh is a real process,
// SIGKILLed in the middle of an AllreduceBytes loop. Both survivors — each
// waiting on rank 0 in every round — return a *mpi.LinkError naming rank 0
// within a second, with Options.Timeout at 30 s: the broken connection is
// the verdict, not a deadline.
func TestKilledRankIsLinkError(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a rank process")
	}
	const timeout = 30 * time.Second
	cmd := exec.Command(os.Args[0], "-test.run", "^TestMeshRankHelper$")
	cmd.Env = append(os.Environ(), meshRankEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	var addr0 string
	for sc := bufio.NewScanner(out); addr0 == "" && sc.Scan(); {
		addr0, _ = strings.CutPrefix(sc.Text(), "mesh-addr ")
	}
	if addr0 == "" {
		t.Fatal("rank 0 process never reported its address")
	}

	lns, own := listeners(t, 2)
	addrs := []string{addr0, own[0], own[1]}
	var rounds atomic.Int64
	errs := make([]error, 3)
	ended := make([]time.Time, 3)
	var wg sync.WaitGroup
	for r := 1; r <= 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm, err := DialOptions(rank, addrs, Options{Timeout: timeout, Listener: lns[rank-1]})
			if err != nil {
				errs[rank] = err
				return
			}
			defer comm.Close()
			w := mpi.NewWorld(3, perfmodel.Hopper(), 1)
			errs[rank] = w.RunLink(rank, comm, func(c *mpi.Comm) error { return allreduceRounds(c, -1, &rounds) })
			ended[rank] = time.Now()
		}(r)
	}
	deadline := time.Now().Add(20 * time.Second)
	for rounds.Load() < 100 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	killed := time.Now()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rounds.Load() < 100 {
		t.Fatalf("only %d rounds before the kill: %v", rounds.Load(), errs)
	}
	for _, r := range []int{1, 2} {
		var le *mpi.LinkError
		if !errors.As(errs[r], &le) || le.Peer != 0 {
			t.Fatalf("survivor %d: %v, want a *mpi.LinkError with Peer 0", r, errs[r])
		}
		took := ended[r].Sub(killed)
		if took > time.Second {
			t.Fatalf("survivor %d took %v to fail after the kill; Options.Timeout is %v", r, took, timeout)
		}
		t.Logf("survivor %d failed %v after the kill: %v", r, took, errs[r])
	}
}
