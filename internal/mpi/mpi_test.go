package mpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"casvm/internal/perfmodel"
)

func testWorld(p int) *World { return NewWorld(p, perfmodel.Hopper(), 42) }

func TestSendRecvBasic(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
		} else {
			got := c.Recv(0, 7)
			if string(got) != "hello" {
				return fmt.Errorf("got %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().Bytes(0, 1) != 5 {
		t.Errorf("bytes(0,1)=%d", w.Stats().Bytes(0, 1))
	}
	if w.Stats().Ops(0, 1) != 1 {
		t.Errorf("ops(0,1)=%d", w.Stats().Ops(0, 1))
	}
}

func TestRecvSelectiveByTag(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("first"))
			c.Send(1, 2, []byte("second"))
		} else {
			// Receive out of order: tag 2 first.
			if got := c.Recv(0, 2); string(got) != "second" {
				return fmt.Errorf("tag2 got %q", got)
			}
			if got := c.Recv(0, 1); string(got) != "first" {
				return fmt.Errorf("tag1 got %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvFromInvalidRank: a receive from a rank outside the world fails
// the rank at once, as a send to one does, instead of waiting forever.
func TestRecvFromInvalidRank(t *testing.T) {
	for _, src := range []int{-1, 4} {
		err := testWorld(4).Run(func(c *Comm) error {
			c.Recv(src, 3)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "recv from invalid rank") {
			t.Fatalf("Recv(%d): %v", src, err)
		}
	}
}

func TestSelfSendNotCounted(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		c.Send(c.Rank(), 5, []byte("self"))
		if got := c.Recv(c.Rank(), 5); string(got) != "self" {
			return fmt.Errorf("self recv got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().TotalBytes() != 0 || w.Stats().TotalOps() != 0 {
		t.Error("self-sends must not count as network traffic")
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		for root := 0; root < p; root++ {
			w := testWorld(p)
			payload := []byte(fmt.Sprintf("msg-from-%d", root))
			err := w.Run(func(c *Comm) error {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				out := c.Bcast(root, in)
				if string(out) != string(payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), out)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBcastByteVolume(t *testing.T) {
	// A binomial bcast moves exactly (p-1) copies of the payload.
	w := testWorld(8)
	err := w.Run(func(c *Comm) error {
		c.Bcast(0, make([]byte, 100))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().TotalBytes(); got != 700 {
		t.Errorf("bcast volume=%d want 700", got)
	}
}

func TestScattervGatherv(t *testing.T) {
	w := testWorld(5)
	err := w.Run(func(c *Comm) error {
		var blocks [][]byte
		if c.Rank() == 2 {
			blocks = make([][]byte, 5)
			for i := range blocks {
				blocks[i] = []byte{byte(i * 10)}
			}
		}
		mine := c.Scatterv(2, blocks)
		if mine[0] != byte(c.Rank()*10) {
			return fmt.Errorf("rank %d scatter got %d", c.Rank(), mine[0])
		}
		// Transform and gather back.
		mine[0]++
		all := c.Gatherv(2, mine)
		if c.Rank() == 2 {
			for i, b := range all {
				if b[0] != byte(i*10+1) {
					return fmt.Errorf("gather[%d]=%d", i, b[0])
				}
			}
		} else if all != nil {
			return errors.New("non-root gather must return nil")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceOps: the float reduction overwrites x with the sum and
// returns x itself.
func TestAllreduceOps(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		w := testWorld(p)
		err := w.Run(func(c *Comm) error {
			x := []float64{float64(c.Rank() + 1), -float64(c.Rank())}
			want := []float64{float64(p*(p+1)) / 2, -float64(p*(p-1)) / 2}
			got := c.AllreduceSum(x)
			if &got[0] != &x[0] {
				return fmt.Errorf("sum returned a slice other than x")
			}
			if x[0] != want[0] || x[1] != want[1] {
				return fmt.Errorf("sum: x=%v want %v", x, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// treeSum is the binomial-tree order AllreduceBytes folds in: at step s,
// every rank that is a multiple of 2s adds in rank r+s's accumulator.
func treeSum(vals [][]float64) []float64 {
	acc := make([][]float64, len(vals))
	for r, v := range vals {
		acc[r] = append([]float64(nil), v...)
	}
	for step := 1; step < len(vals); step <<= 1 {
		for r := 0; r+step < len(vals); r += 2 * step {
			for i := range acc[r] {
				acc[r][i] += acc[r+step][i]
			}
		}
	}
	return acc[0]
}

// TestAllreduceMatchesTreeFold: the in-place sum gives every rank the
// tree-order fold bit for bit, on values whose sum depends on the order
// (magnitudes 1e-8 to 1e8, signed zeros).
func TestAllreduceMatchesTreeFold(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{0, 1, 7} {
			vals := make([][]float64, p)
			for r := range vals {
				vals[r] = make([]float64, n)
				for i := range vals[r] {
					switch rng.Intn(6) {
					case 0:
						vals[r][i] = math.Copysign(0, -1)
					default:
						vals[r][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
					}
				}
			}
			want := treeSum(vals)
			err := testWorld(p).Run(func(c *Comm) error {
				x := append(make([]float64, 0, n), vals[c.Rank()]...)
				got := c.AllreduceSum(x)
				if len(got) != n || (n > 0 && &got[0] != &x[0]) {
					return fmt.Errorf("result is not x: len %d", len(got))
				}
				for i := range want {
					if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
						return fmt.Errorf("x[%d]=%v (%#x) want %v (%#x)", i, x[i], math.Float64bits(x[i]), want[i], math.Float64bits(want[i]))
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
		}
	}
}

// Property: AllreduceSum across any P equals the serial sum.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(seed int64, pu uint8, nu uint8) bool {
		p := int(pu)%7 + 1
		n := int(nu)%5 + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([][]float64, p)
		want := make([]float64, n)
		for r := range vals {
			vals[r] = make([]float64, n)
			for i := range vals[r] {
				vals[r][i] = float64(rng.Intn(1000) - 500)
				want[i] += vals[r][i]
			}
		}
		w := testWorld(p)
		ok := int32(1)
		err := w.Run(func(c *Comm) error {
			got := c.AllreduceSum(vals[c.Rank()])
			for i := range got {
				if got[i] != want[i] {
					atomic.StoreInt32(&ok, 0)
				}
			}
			return nil
		})
		return err == nil && atomic.LoadInt32(&ok) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAllreduceSumInt(t *testing.T) {
	w := testWorld(3)
	err := w.Run(func(c *Comm) error {
		got := c.AllreduceSumInt([]int{1, c.Rank()})
		if got[0] != 3 || got[1] != 3 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinLocMaxLoc(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6, 8} {
		w := testWorld(p)
		err := w.Run(func(c *Comm) error {
			val := float64((c.Rank()*3)%p) + 0.5 // distinct-ish values
			min := c.AllreduceMinLoc(val, c.Rank()*100)
			max := c.AllreduceMaxLoc(val, c.Rank()*100)
			// Verify against a direct computation.
			var wantMin, wantMax Loc
			wantMin.Val = 1e18
			wantMax.Val = -1e18
			for r := 0; r < p; r++ {
				v := float64((r*3)%p) + 0.5
				if v < wantMin.Val {
					wantMin = Loc{Val: v, Rank: int32(r), Index: int32(r * 100)}
				}
				if v > wantMax.Val {
					wantMax = Loc{Val: v, Rank: int32(r), Index: int32(r * 100)}
				}
			}
			if min != wantMin {
				return fmt.Errorf("min=%v want %v", min, wantMin)
			}
			if max != wantMax {
				return fmt.Errorf("max=%v want %v", max, wantMax)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestMinLocTieBreaksToLowerRank(t *testing.T) {
	w := testWorld(4)
	err := w.Run(func(c *Comm) error {
		l := c.AllreduceMinLoc(1.0, c.Rank())
		if l.Rank != 0 {
			return fmt.Errorf("tie should pick rank 0, got %d", l.Rank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	var before, violations int32
	w := testWorld(8)
	err := w.Run(func(c *Comm) error {
		atomic.AddInt32(&before, 1)
		c.Barrier()
		if atomic.LoadInt32(&before) != 8 {
			atomic.AddInt32(&violations, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Errorf("%d ranks passed the barrier early", violations)
	}
}

func TestClockAdvancesOnCommAndCompute(t *testing.T) {
	w := testWorld(2)
	var clocks [2]float64
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Charge(1e9) // 0.1 s on the Hopper model
			c.Send(1, 1, make([]byte, 1000))
		} else {
			if c.Clock() != 0 {
				return errors.New("clock must start at zero")
			}
			c.Recv(0, 1)
			if c.Clock() <= 0.1 {
				return fmt.Errorf("receiver clock %v should exceed sender compute", c.Clock())
			}
		}
		clocks[c.Rank()] = c.Clock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxClock() <= 0.1 {
		t.Errorf("MaxClock=%v", w.MaxClock())
	}
	if w.Stats().CompSec(0) == 0 || w.Stats().CommSec(1) == 0 {
		t.Error("stats should record comp on sender and comm on receiver")
	}
}

func TestChargeTime(t *testing.T) {
	w := testWorld(1)
	err := w.Run(func(c *Comm) error {
		c.ChargeTime(2.5)
		if c.Clock() != 2.5 {
			return fmt.Errorf("clock=%v", c.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().CompSec(0) != 2.5 {
		t.Error("ChargeTime should book computation")
	}
}

func TestErrorAbortsBlockedRanks(t *testing.T) {
	w := testWorld(3)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return errors.New("rank 0 failed")
		}
		// These would block forever without the abort machinery.
		c.Recv(0, 9)
		return nil
	})
	if err == nil || err.Error() != "rank 0 failed" {
		t.Fatalf("err=%v", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		c.Recv(1, 1)
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panic")
	}
}

func TestSendF64RoundTrip(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendF64(1, 4, []float64{3.14, -2.71})
		} else {
			x := c.RecvF64(0, 4)
			if len(x) != 2 || x[0] != 3.14 || x[1] != -2.71 {
				return fmt.Errorf("got %v", x)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministicPerRank(t *testing.T) {
	draw := func() [2]float64 {
		var out [2]float64
		w := testWorld(2)
		if err := w.Run(func(c *Comm) error {
			out[c.Rank()] = c.RNG().Float64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draw(), draw()
	if a != b {
		t.Error("same seed must give same streams")
	}
	if a[0] == a[1] {
		t.Error("different ranks must have different streams")
	}
}

func TestUserTagRangeEnforced(t *testing.T) {
	w := testWorld(1)
	err := w.Run(func(c *Comm) error {
		defer func() {
			if recover() == nil {
				panic("want panic for out-of-range tag")
			}
		}()
		c.Send(0, collTagBase, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) should panic")
		}
	}()
	NewWorld(0, perfmodel.Hopper(), 1)
}

// Bytes sent equal bytes received implicitly because a single counter per
// edge records both ends; here we sanity-check matrix symmetry of a
// symmetric exchange.
func TestStatsMatrixSymmetricExchange(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		other := 1 - c.Rank()
		c.Send(other, 1, make([]byte, 64))
		c.Recv(other, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := w.Stats().Matrix()
	if m[0][1] != 64 || m[1][0] != 64 {
		t.Errorf("matrix=%v", m)
	}
}

func TestAlltoallv(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		w := testWorld(p)
		err := w.Run(func(c *Comm) error {
			blocks := make([][]byte, p)
			for d := range blocks {
				blocks[d] = []byte(fmt.Sprintf("%d->%d", c.Rank(), d))
			}
			got := c.Alltoallv(blocks)
			for src, b := range got {
				want := fmt.Sprintf("%d->%d", src, c.Rank())
				if string(b) != want {
					return fmt.Errorf("rank %d from %d: got %q want %q", c.Rank(), src, b, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAlltoallvBackToBack(t *testing.T) {
	// Two consecutive exchanges must not cross-match (distinct tags).
	w := testWorld(3)
	err := w.Run(func(c *Comm) error {
		for round := 0; round < 2; round++ {
			blocks := make([][]byte, 3)
			for d := range blocks {
				blocks[d] = []byte(fmt.Sprintf("r%d-%d->%d", round, c.Rank(), d))
			}
			got := c.Alltoallv(blocks)
			for src, b := range got {
				want := fmt.Sprintf("r%d-%d->%d", round, src, c.Rank())
				if string(b) != want {
					return fmt.Errorf("round %d: got %q want %q", round, b, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvValidation(t *testing.T) {
	w := testWorld(2)
	err := w.Run(func(c *Comm) error {
		defer func() {
			if recover() == nil {
				panic("want panic for wrong block count")
			}
		}()
		c.Alltoallv(make([][]byte, 1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
