package core

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/tcpmpi"
)

// onMesh dials a p-rank loopback tcpmpi mesh on handed-over listeners and
// runs f once per rank, each on its own goroutine with its own tcpmpi.Comm —
// what p worker processes would do, minus the fork.
func onMesh(t *testing.T, p int, f func(rank int, comm *tcpmpi.Comm) error) {
	t.Helper()
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm, err := tcpmpi.DialOptions(rank, addrs, tcpmpi.Options{
				Listener: lns[rank], Timeout: 30 * time.Second})
			if err != nil {
				errs[rank] = err
				return
			}
			defer comm.Close()
			errs[rank] = f(rank, comm)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestEveryMethodBothLinks: P ranks on a TCP mesh, each running RunRank and
// GatherOutput on its own world the way a worker process does, land on the
// model and the world totals of the in-process Train — messages, bytes,
// iterations and virtual time, exactly.
func TestEveryMethodBothLinks(t *testing.T) {
	d := testSet(t, 240)
	for _, m := range Methods() {
		for _, p := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", m, p), func(t *testing.T) {
				pr := paramsFor(m, p, d)
				ref, err := Train(d.X, d.Y, pr)
				if err != nil {
					t.Fatal(err)
				}
				var got *Output
				onMesh(t, p, func(rank int, comm *tcpmpi.Comm) error {
					world := mpi.NewWorld(p, pr.Machine, pr.Seed)
					return world.RunLink(rank, comm, func(c *mpi.Comm) error {
						sh, err := RunRank(c, d.X, d.Y, pr)
						if err != nil {
							return err
						}
						out, err := GatherOutput(c, sh, pr, world.Stats())
						if rank == 0 {
							got = out
						} else if out != nil {
							return fmt.Errorf("rank %d got an output", rank)
						}
						return err
					})
				})
				wantHash, err := ModelHash(ref.Set)
				if err != nil {
					t.Fatal(err)
				}
				gotHash, err := ModelHash(got.Set)
				if err != nil {
					t.Fatal(err)
				}
				if gotHash != wantHash {
					t.Errorf("model hash %s over TCP, %s in-process", gotHash, wantHash)
				}
				g, w := got.Stats, ref.Stats
				if g.CommOps != w.CommOps || g.CommBytes != w.CommBytes {
					t.Errorf("messages/bytes %d/%d over TCP, %d/%d in-process", g.CommOps, g.CommBytes, w.CommOps, w.CommBytes)
				}
				if g.Iters != w.Iters || g.SVs != w.SVs || g.TotalSec != w.TotalSec {
					t.Errorf("iters/SVs/TotalSec %d/%d/%v over TCP, %d/%d/%v in-process",
						g.Iters, g.SVs, g.TotalSec, w.Iters, w.SVs, w.TotalSec)
				}
				if g.InitSec != w.InitSec || g.TrainSec != w.TrainSec || g.KMeansIters != w.KMeansIters ||
					g.ColCacheMisses != w.ColCacheMisses {
					t.Errorf("profile %v/%v/%d/%d over TCP, %v/%v/%d/%d in-process", g.InitSec, g.TrainSec,
						g.KMeansIters, g.ColCacheMisses, w.InitSec, w.TrainSec, w.KMeansIters, w.ColCacheMisses)
				}
				if !reflect.DeepEqual(g.PartSizes, w.PartSizes) || !reflect.DeepEqual(g.NodeIters, w.NodeIters) ||
					!reflect.DeepEqual(g.NodeSVPos, w.NodeSVPos) || !reflect.DeepEqual(g.Layers, w.Layers) {
					t.Errorf("per-node profile differs:\n TCP        %+v\n in-process %+v", g, w)
				}
			})
		}
	}
}

// TestGatheredResultIsBounded: a gathered rank result is bytes from another
// process; anything malformed is an error, never a panic or a short slice.
func TestGatheredResultIsBounded(t *testing.T) {
	k := kernel.RBF(0.5)
	nums := la.EncodeF64(make([]float64, shardNums+5))
	good := mpi.PackSections(nums)
	var sh ShardResult
	if err := sh.decode(2, good, k, 2); err != nil || len(sh.layers) != 1 || sh.layers[0].Rank != 2 || sh.Model != nil {
		t.Fatalf("well-formed payload: %v, %+v", err, sh)
	}
	m := model.FromSolution(la.NewDense(2, 2, []float64{1, 2, -1, -2}), []float64{1, -1}, []float64{0.5, 0.5}, 0.1, k)
	shard := model.EncodeShard(m, []float64{0, 0})
	withModel := mpi.PackSections(append([][]byte{nums}, shard...)...)
	if err := sh.decode(0, withModel, k, 2); err != nil || sh.Model.NSV() != 2 || len(sh.Center) != 2 {
		t.Fatalf("payload with a model: %v, %+v", err, sh)
	}
	shortCenter := append([][]byte{nums}, shard...)
	shortCenter[4] = shortCenter[4][:8]
	bad := [][]byte{
		nil,
		good[:len(good)-1],
		withModel[:len(withModel)-1],
		mpi.PackSections(),
		mpi.PackSections(la.EncodeF64(make([]float64, shardNums-1))),
		mpi.PackSections(la.EncodeF64(make([]float64, shardNums+3))),
		mpi.PackSections(nums, []byte("not a shard")),
		mpi.PackSections(append([][]byte{nums}, shard[1:]...)...),
		mpi.PackSections(shortCenter...),
	}
	if err := sh.decode(0, withModel, k, 3); err == nil {
		t.Error("a 2-feature shard decoded against 3-feature data")
	}
	for i, buf := range bad {
		if err := sh.decode(0, buf, k, 2); err == nil {
			t.Errorf("payload %d decoded without error", i)
		}
	}
}

// TestDisSMOGatherIsBounded: Dis-SMO's final gather payload is bytes from
// another process. One section where two are required, or a bias section
// that is not two float64s, is a typed error — never an index panic.
func TestDisSMOGatherIsBounded(t *testing.T) {
	x := la.NewDense(2, 1, []float64{1, -1})
	svs := encodePart(x, []float64{1, -1}, []float64{0.5, 0.5}, allRows(2))
	if q, h, l, err := decodeDisSMOResult(mpi.PackSections(svs, make([]byte, 16))); err != nil ||
		q.x.Rows() != 2 || h != 0 || l != 0 {
		t.Fatalf("well-formed payload: %v, %+v", err, q)
	}
	for name, buf := range map[string][]byte{
		"one section":    mpi.PackSections(svs),
		"three sections": mpi.PackSections(svs, make([]byte, 16), nil),
		"short bias":     mpi.PackSections(svs, make([]byte, 8)),
		"hostile count":  {0xff, 0xff, 0xff, 0xff},
	} {
		_, _, _, err := decodeDisSMOResult(buf)
		var ee *mpi.EnvelopeError
		if !errors.As(err, &ee) {
			t.Errorf("%s: error %v, want *mpi.EnvelopeError", name, err)
		}
	}
}
