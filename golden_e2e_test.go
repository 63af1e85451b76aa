package casvm

import (
	"bytes"
	"math"
	"testing"

	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

// goldenRun pins the full-pipeline fingerprint of one training
// configuration: the SHA-256 of the serialized model set, the critical-path
// iteration count, and the modeled total flop count. All three are
// bit-deterministic — independent of wall-clock, scheduling and the Threads
// setting — so any drift means the numerics changed, not the environment.
type goldenRun struct {
	method Method
	p      int
	hash   string
	iters  int
	flops  float64
}

func goldenParams(m Method, p, threads int) Params {
	pr := DefaultParams(m, p)
	pr.Kernel = RBF(0.5)
	pr.Threads = threads
	return pr
}

// TestGoldenEndToEnd trains on the registered toy dataset and compares the
// run fingerprint against golden values, at Threads = 1, 2 and 4. The
// shared-memory parallel solver promises bit-identical results for every
// thread count; a mismatch between thread counts is a determinism bug, a
// mismatch against the golden values is a numerics change (update the
// constants only for an intentional algorithm change).
//
// At Threads=1 a Timeline rides along (instrumentation is clock-invariant,
// so the fingerprints must not move) and the causal trace is held to the
// acceptance invariants: the critical-path decomposition sums to the total
// virtual makespan within 1e-9, and re-analyzing the exported trace file
// reproduces the in-process split exactly — encoding/json round-trips
// float64 bit-for-bit, so file-based casvm-profile analysis and the run
// report must agree to the last bit.
func TestGoldenEndToEnd(t *testing.T) {
	golden := []goldenRun{
		{MethodRACA, 4, "6e603d88184ed7fd7a01845da0195d90edf557a950f1535f8b630d4b35b3eb2f", 739, 1.72808e+07},
		{MethodFCFSCA, 4, "39d1239622cd4d386a42d70151d76b3d26bada66e4929426e56ca3f6ccc58fb4", 604, 1.6178788e+07},
		{MethodDisSMO, 2, "976ca4d880ff9b6a581dab35f7854977444a47ff3aadf35905d1ff74e39a9188", 2148, 1.551584e+08},
	}
	ds, _, err := LoadDataset("toy", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		for _, threads := range []int{1, 2, 4} {
			pr := goldenParams(g.method, g.p, threads)
			if threads == 1 {
				pr.Timeline = NewTimeline(g.p)
			}
			out, err := Train(ds.X, ds.Y, pr)
			if err != nil {
				t.Fatalf("%s threads=%d: %v", g.method, threads, err)
			}
			rep, err := BuildReport(out, pr, "toy", 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ModelHash != g.hash {
				t.Errorf("%s threads=%d: model hash %s, want %s",
					g.method, threads, rep.ModelHash, g.hash)
			}
			if rep.Iters != g.iters {
				t.Errorf("%s threads=%d: iters %d, want %d",
					g.method, threads, rep.Iters, g.iters)
			}
			if rep.TotalFlops != g.flops {
				t.Errorf("%s threads=%d: flops %v, want %v",
					g.method, threads, rep.TotalFlops, g.flops)
			}
			if threads == 1 {
				checkCritPath(t, string(g.method), pr, out.Stats.TotalSec, rep.CritPath)
			}
		}
	}
}

// checkCritPath holds the traced run to the critical-path acceptance
// invariants (see TestGoldenEndToEnd).
func checkCritPath(t *testing.T, method string, pr Params, totalSec float64, cp *trace.CritPathReport) {
	t.Helper()
	if cp == nil {
		t.Fatalf("%s: report has no crit_path despite an attached timeline", method)
	}
	if d := pr.Timeline.Dropped(); d != 0 {
		t.Fatalf("%s: %d dropped trace records; the tiling is incomplete", method, d)
	}
	sum := cp.CompSec + cp.LatencySec + cp.BandwidthSec + cp.WaitSec
	if math.Abs(sum-cp.MakespanSec) > 1e-9 {
		t.Errorf("%s: decomposition sum %v != makespan %v (Δ=%g)",
			method, sum, cp.MakespanSec, sum-cp.MakespanSec)
	}
	if math.Abs(cp.MakespanSec-totalSec) > 1e-9 {
		t.Errorf("%s: critical-path makespan %v != Stats.TotalSec %v",
			method, cp.MakespanSec, totalSec)
	}
	if v := pr.Timeline.CausalityViolations(); v != 0 {
		t.Errorf("%s: %d causality violations in a fault-free run", method, v)
	}

	// The trace file is as authoritative as the live timeline: export,
	// re-read, re-analyze, and demand the identical split.
	var buf bytes.Buffer
	if err := pr.Timeline.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	extra, err := trace.ReadTraceExtra(&buf)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	a, err := critpath.Analyze(critpath.FromExtra(extra))
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	fromFile := a.Report()
	if fromFile.MakespanSec != cp.MakespanSec ||
		fromFile.CompSec != cp.CompSec ||
		fromFile.LatencySec != cp.LatencySec ||
		fromFile.BandwidthSec != cp.BandwidthSec ||
		fromFile.WaitSec != cp.WaitSec ||
		fromFile.EndRank != cp.EndRank ||
		fromFile.Hops != cp.Hops ||
		fromFile.Steps != cp.Steps {
		t.Errorf("%s: file analysis diverged from in-process analysis:\nfile: %+v\nlive: %+v",
			method, fromFile, cp)
	}
}
