package casvm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/model"
	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

// goldenRun pins the full-pipeline fingerprint of one training
// configuration: the model fingerprint (model.Set.Hash), the critical-path
// iteration count, and the modeled total flop count. All three are
// bit-deterministic — independent of wall-clock and scheduling — so any
// drift means the numerics changed, not the environment.
type goldenRun struct {
	data   string // registered dataset, loaded at scale
	scale  float64
	method Method
	p      int
	hash   string
	iters  int
	flops  float64
}

func goldenParams(m Method, p int) Params {
	pr := DefaultParams(m, p)
	pr.Kernel = RBF(0.5)
	return pr
}

// TestGoldenEndToEnd trains on registered datasets and compares the
// run fingerprint against golden values; a mismatch is a numerics change
// (update the constants only for an intentional algorithm change).
//
// A Timeline rides along (instrumentation is clock-invariant, so the
// fingerprints must not move) and the causal trace is held to the
// acceptance invariants: the critical-path decomposition sums to the total
// virtual makespan within 1e-9, and re-analyzing the exported trace file
// reproduces the in-process split exactly — encoding/json round-trips
// float64 bit-for-bit, so file-based casvm-profile analysis and the run
// report must agree to the last bit.
func TestGoldenEndToEnd(t *testing.T) {
	// The K-means-driven methods (CP-SVM, BKM-CA, DC-SVM, DC-Filter) and the
	// two partitioners on sparse rows pin every nearest-center distance:
	// Lloyd's convergence test counts changed assignments, so one flipped
	// argmin shows in the iterations and the hash. DC-SVM and DC-Filter
	// train the same model on toy.
	golden := []goldenRun{
		{"toy", 1, MethodRACA, 4, "6405d5aacd47b975d7a782790efc98d1d6da32e2be5efa2221cd45d9d0681583", 739, 1.72808e+07},
		{"toy", 1, MethodFCFSCA, 4, "7d82fdb38ac5b024d790c2633dc74b2162b069e762f50c29076e4d409ef392ce", 604, 1.6178788e+07},
		{"toy", 1, MethodDisSMO, 2, "cd944ac7e9fcd523c2a623b9ed05a723183d3447d51c7a8d6a717e1bbf42ba04", 2148, 1.551584e+08},
		{"toy", 1, MethodCPSVM, 4, "0f9e16b7b7061910e4427ada9ab36250ab912fc4a87628b58287f697df0fca98", 1061, 2.0862451e+07},
		{"toy", 1, MethodBKMCA, 4, "c230e7bf47b82453b9e34f2b7440061073aa85c480f8e5dc2c412a3d62416bac", 611, 1.7429232e+07},
		{"toy", 1, MethodDCSVM, 4, "6caf51967344b525ab6ca049bd3d692f2b6f23ca7283c63ca2d163f2b5d8aed5", 3648, 1.40896381e+08},
		{"toy", 1, MethodDCFilter, 4, "6caf51967344b525ab6ca049bd3d692f2b6f23ca7283c63ca2d163f2b5d8aed5", 3648, 1.40896381e+08},
		{"webspam", 0.25, MethodFCFSCA, 4, "ea9b74dee2df6be924c04eb037749f01091ffb2bfbbb10651513ac1d16b7b9bc", 884, 5.506668e+07},
		{"webspam", 0.25, MethodBKMCA, 4, "fe113dcb812b444531be5adeb2c0f29631f73534fc417dbd9b1a7fc87fa475cb", 898, 1.28988024e+08},
	}
	for _, g := range golden {
		ds, _, err := LoadDataset(g.data, g.scale)
		if err != nil {
			t.Fatal(err)
		}
		name := g.data + "/" + string(g.method)
		pr := goldenParams(g.method, g.p)
		pr.Timeline = NewTimeline(g.p)
		out, err := Train(ds.X, ds.Y, pr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := BuildReport(out, pr, g.data, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ModelHash != g.hash {
			t.Errorf("%s: model hash %s, want %s", name, rep.ModelHash, g.hash)
		}
		if rep.Iters != g.iters {
			t.Errorf("%s: iters %d, want %d", name, rep.Iters, g.iters)
		}
		if rep.TotalFlops != g.flops {
			t.Errorf("%s: flops %v, want %v", name, rep.TotalFlops, g.flops)
		}
		checkCritPath(t, name, pr, out.Stats.TotalSec, rep.CritPath)
	}
}

// TestModelHashRepin records the one change of fingerprint form, from SHA-256
// over the text model file to Set.Hash over the canonical binary form, for
// the six pinned configurations: the three runs of TestGoldenEndToEnd and the
// three Dis-SMO runs internal/core pins (the cache-capacity invariant, whose
// hash is the same at every width, and TestDisSMOPreRewriteHashes' two). Each
// trains once; the text digest is recomputed here from model.SaveSet, so the
// mapping old → new stays readable beside the constants that moved.
func TestModelHashRepin(t *testing.T) {
	gen := func(spec MixtureSpec) *Dataset {
		d, err := GenerateDataset(spec)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	toy, _, err := LoadDataset("toy", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dense := gen(MixtureSpec{Name: "core-test", Train: 300, Test: 75, Features: 8, Clusters: 4,
		Separation: 7, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02, Margin: 1.0, Seed: 42})
	sparse := gen(MixtureSpec{Name: "core-sparse", Train: 360, Test: 90, Features: 400, Clusters: 4,
		Separation: 7, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02,
		Margin: 1.0, Sparse: true, Density: 0.05, Seed: 7})
	dissmo := func(p int, k Kernel, maxIter int) Params {
		pr := DefaultParams(MethodDisSMO, p)
		pr.Kernel, pr.MaxIter = k, maxIter
		return pr
	}
	for _, tc := range []struct {
		name      string
		d         *Dataset
		pr        Params
		text, bin string
	}{
		{"golden ra-ca", toy, goldenParams(MethodRACA, 4),
			"6e603d88184ed7fd7a01845da0195d90edf557a950f1535f8b630d4b35b3eb2f",
			"6405d5aacd47b975d7a782790efc98d1d6da32e2be5efa2221cd45d9d0681583"},
		{"golden fcfs-ca", toy, goldenParams(MethodFCFSCA, 4),
			"39d1239622cd4d386a42d70151d76b3d26bada66e4929426e56ca3f6ccc58fb4",
			"7d82fdb38ac5b024d790c2633dc74b2162b069e762f50c29076e4d409ef392ce"},
		{"golden dissmo", toy, goldenParams(MethodDisSMO, 2),
			"976ca4d880ff9b6a581dab35f7854977444a47ff3aadf35905d1ff74e39a9188",
			"cd944ac7e9fcd523c2a623b9ed05a723183d3447d51c7a8d6a717e1bbf42ba04"},
		{"dissmo cache capacity", dense, dissmo(4, RBF(1.0/16), 0),
			"aa03a395bce7ff16550b99fa315232a31202827b19372291fd5ccd5a0fe9233b",
			"ac59fae48645680205fc33cfb790917673d721c5f6ae3ce7fd560c007a024990"},
		{"dissmo sparse-rbf", sparse, dissmo(3, RBF(1.0/40), 0),
			"d5f757fc8eac58db7286d84e6ceba9f26fba0f4486cfe6c9ac72064612bfdd48",
			"97caeeed9787a5e9d1a67ef5682b8800a4f18874b3d3af8db8963b40cdfadd09"},
		{"dissmo dense-linear", dense, dissmo(3, Kernel{Kind: kernel.Linear}, 3000),
			"01d96cbff4e43fddc7f80307bfe1d7967b3c769864c6cc6eda50a79d9d1680f3",
			"b646d4f4330446e6459b2403b5677a09e1e93289a53795b105caab0261feaa56"},
	} {
		out, err := Train(tc.d.X, tc.d.Y, tc.pr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		if err := model.SaveSet(h, out.Set); err != nil {
			t.Fatal(err)
		}
		if text, bin := hex.EncodeToString(h.Sum(nil)), out.Set.Hash(); text != tc.text || bin != tc.bin {
			t.Errorf("%s: text digest %s binary digest %s, want %s %s", tc.name, text, bin, tc.text, tc.bin)
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
