package mpi

import (
	"math"
	"testing"

	"casvm/internal/perfmodel"
	"casvm/internal/trace"
)

// runTraced runs f on a p-rank world with a timeline attached and returns
// the timeline and world.
func runTraced(t *testing.T, p int, f func(c *Comm) error) (*trace.Timeline, *World) {
	t.Helper()
	w := NewWorld(p, perfmodel.Hopper(), 1)
	tl := trace.NewTimeline(p)
	w.SetTimeline(tl)
	if err := w.Run(f); err != nil {
		t.Fatal(err)
	}
	return tl, w
}

// TestFlowEdgeCausality pins the causal invariant on a communication-heavy
// workload (this test runs in the -race matrix): every delivered message's
// recv virtual time is ≥ its send virtual time, the timeline's violation
// counter stays zero, and edge ids are unique after dedup.
func TestFlowEdgeCausality(t *testing.T) {
	const p = 4
	tl, _ := runTraced(t, p, func(c *Comm) error {
		for round := 0; round < 5; round++ {
			c.Charge(float64(1000 * (c.Rank() + 1))) // uneven compute → real waits
			c.Barrier()
			buf := make([]byte, 64*(c.Rank()+1))
			c.Bcast(0, buf)
			c.Gatherv(0, buf)
			c.AllreduceSum([]float64{float64(c.Rank())})
		}
		return nil
	})
	if v := tl.CausalityViolations(); v != 0 {
		t.Fatalf("causality violations: %d", v)
	}
	edges := tl.FlowEdges()
	if len(edges) == 0 {
		t.Fatal("no flow edges recorded")
	}
	seen := map[int64]bool{}
	for _, e := range edges {
		if e.ID <= 0 {
			t.Fatalf("edge id %d, want > 0", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate edge id %d after dedup", e.ID)
		}
		seen[e.ID] = true
		if e.RecvVirtSec < e.SendVirtSec {
			t.Fatalf("edge %d: recv %.17g < send %.17g", e.ID, e.RecvVirtSec, e.SendVirtSec)
		}
		if e.Src == e.Dst {
			t.Fatalf("edge %d: self-send recorded as flow", e.ID)
		}
		if e.LatencySec < 0 || e.BandwidthSec < 0 {
			t.Fatalf("edge %d: negative α–β split", e.ID)
		}
	}
}

// TestSegmentsTileClock: the recorded segments of each rank must tile
// [0, final clock] exactly — contiguous, in order, with no overlap — so the
// critical-path decomposition can telescope to the makespan.
func TestSegmentsTileClock(t *testing.T) {
	const p = 3
	finals := make([]float64, p)
	tl, _ := runTraced(t, p, func(c *Comm) error {
		c.Charge(5000)
		c.Barrier()
		c.ChargeTime(1e-6 * float64(c.Rank()))
		c.Bcast(1, make([]byte, 1024))
		c.Barrier()
		finals[c.Rank()] = c.Clock()
		return nil
	})
	for r, segs := range tl.Segments() {
		if len(segs) == 0 {
			t.Fatalf("rank %d recorded no segments", r)
		}
		cursor := 0.0
		for i, s := range segs {
			if s.Start != cursor {
				t.Fatalf("rank %d seg %d starts at %.17g, want %.17g (gap/overlap)", r, i, s.Start, cursor)
			}
			if s.End < s.Start {
				t.Fatalf("rank %d seg %d negative duration", r, i)
			}
			cursor = s.End
		}
		if cursor != finals[r] {
			t.Fatalf("rank %d tiling ends at %.17g, final clock %.17g", r, cursor, finals[r])
		}
	}
}

// TestInstrumentationClockInvariance: attaching a timeline must not change
// virtual time by a single ulp (the golden-run determinism contract).
func TestInstrumentationClockInvariance(t *testing.T) {
	run := func(tl *trace.Timeline) []float64 {
		w := NewWorld(4, perfmodel.Hopper(), 7)
		w.SetTimeline(tl)
		clocks := make([]float64, 4)
		if err := w.Run(func(c *Comm) error {
			c.Charge(float64(777 * (c.Rank() + 1)))
			blocks := make([][]byte, 4)
			for dst := range blocks {
				blocks[dst] = make([]byte, 100*(c.Rank()+1))
			}
			c.Alltoallv(blocks)
			c.Barrier()
			clocks[c.Rank()] = c.Clock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return clocks
	}
	plain := run(nil)
	traced := run(trace.NewTimeline(4))
	for r := range plain {
		if math.Float64bits(plain[r]) != math.Float64bits(traced[r]) {
			t.Fatalf("rank %d clock changed under instrumentation: %.17g vs %.17g", r, plain[r], traced[r])
		}
	}
}
