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
	// was is the hash and flops before the last intended move, never
	// compared. For the toy rows that move was dense Gaussian kernel rows
	// leaving the difference form Σ(a−b)² for the norms identity, and a
	// kernel matrix that fits its row cache beginning to be filled whole. For
	// the webspam rows it was the compacted whole fill: hashes only, flops
	// and iterations did not move. Iterations did not move either time.
	was string
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
	// train the same model on toy. The sparse rows' hashes did not move with
	// the one Gaussian recipe (CSR rows already took the norms identity);
	// their flops did, with the whole-matrix fill. Their hashes moved when a
	// CSR block dense on its column support began to be whole-filled over its
	// dense copy: every kernel entry is then Eval over the compacted matrix,
	// whose dot products and norms are the CSR rows' (dropping columns that
	// are zero in every row, and renumbering the rest, changes neither) up to
	// the last bits of rounding. The flop charge stayed the CSR formula's, so
	// flops, iterations and virtual time held.
	golden := []goldenRun{
		{"toy", 1, MethodRACA, 4, "5396ea16de1519dd3898f42c564d82b90b798f49eccdbf64217a1b10c3d9036d", 739, 1.763456e+07,
			"6405d5aacd47b975d7a782790efc98d1d6da32e2be5efa2221cd45d9d0681583 1.72808e+07"},
		{"toy", 1, MethodFCFSCA, 4, "f57fcd063f9466c596dc1442c65066dd8691ec686ec995ca97c9f07bbd2b7dd6", 604, 1.6531327e+07,
			"7d82fdb38ac5b024d790c2633dc74b2162b069e762f50c29076e4d409ef392ce 1.6178788e+07"},
		{"toy", 1, MethodDisSMO, 2, "58b719daa6d8eb6efcbee1cc55e4e0db489ad24b5306879d8c942a1fb0e59884", 2148, 1.551584e+08,
			"cd944ac7e9fcd523c2a623b9ed05a723183d3447d51c7a8d6a717e1bbf42ba04 1.551584e+08"},
		{"toy", 1, MethodCPSVM, 4, "168656aeb0748ba67a5c94c39ae644ab5f4a4b81b79fb70dd45ed300ee104a6f", 1061, 2.1216673e+07,
			"0f9e16b7b7061910e4427ada9ab36250ab912fc4a87628b58287f697df0fca98 2.0862451e+07"},
		{"toy", 1, MethodBKMCA, 4, "7726d7d566d3b7f2ea36b0e4376612b255a708655dd7581ace0be60cdf5133d3", 611, 1.7779359e+07,
			"c230e7bf47b82453b9e34f2b7440061073aa85c480f8e5dc2c412a3d62416bac 1.7429232e+07"},
		{"toy", 1, MethodDCSVM, 4, "dd7b54868fabe299fc72233b5aebe7c5c4493c873ec9c1917afa0b4a7da0987f", 3648, 1.41376366e+08,
			"6caf51967344b525ab6ca049bd3d692f2b6f23ca7283c63ca2d163f2b5d8aed5 1.40896381e+08"},
		{"toy", 1, MethodDCFilter, 4, "dd7b54868fabe299fc72233b5aebe7c5c4493c873ec9c1917afa0b4a7da0987f", 3648, 1.41376366e+08,
			"6caf51967344b525ab6ca049bd3d692f2b6f23ca7283c63ca2d163f2b5d8aed5 1.40896381e+08"},
		{"webspam", 0.25, MethodFCFSCA, 4, "3e78f295f90f3820207396ff1a3772e4f6aebc5ab2c37db7c8c107d4b410a6a2", 884, 5.5905516e+07,
			"ea9b74dee2df6be924c04eb037749f01091ffb2bfbbb10651513ac1d16b7b9bc 5.5905516e+07"},
		{"webspam", 0.25, MethodBKMCA, 4, "1d1c14bc887f02bfd62783087177248a4286698e023443835a1282b87c0c0d5e", 898, 1.29825888e+08,
			"fe113dcb812b444531be5adeb2c0f29631f73534fc417dbd9b1a7fc87fa475cb 1.29825888e+08"},
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
// hash is the same at every width, and TestDisSMOPreRewriteHashes' two). The
// text digest each run had is kept as history in the comment above its row;
// the text model file is gone. Each trains once, and the row pins both
// Set.Hash and the SHA-256 of its binary model file (model.SaveSet), so a
// change of file layout shows here beside the fingerprint it must not move.
// The four dense Gaussian runs moved once more, both digests, when dense
// kernel rows took the norms identity; the digests before that stand beside
// them.
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
		file, bin string
	}{
		// text 41c587f7fb230a274866bac8e6d93a9a3cced0e8ca361ae51c9af03aecc34ddc
		{"golden ra-ca", toy, goldenParams(MethodRACA, 4),
			"2e49f47a335f30c174026c081b9d813a6462f426a7cddfd209fcfd61f1f4e641",
			"5396ea16de1519dd3898f42c564d82b90b798f49eccdbf64217a1b10c3d9036d"}, // was 6e603d88184e… 6405d5aacd47…
		// text 3cf96cffe546c41388bde5920638772fc89eb1406478c912a3143f981e6ab8ce
		{"golden fcfs-ca", toy, goldenParams(MethodFCFSCA, 4),
			"4ce7fed369684983688e4bc2b12c35a7b397f8e9590c168c4c864cbb9f96b201",
			"f57fcd063f9466c596dc1442c65066dd8691ec686ec995ca97c9f07bbd2b7dd6"}, // was 39d1239622cd… 7d82fdb38ac5…
		// text 1e26d3b427135f00b111a221c8c07f19c016ec1e329e63e78fe270203db9fedd
		{"golden dissmo", toy, goldenParams(MethodDisSMO, 2),
			"1a6637e018a311f2397a0d3f522f9e68a6afc631507dfa6a90a4234d8a601c2f",
			"58b719daa6d8eb6efcbee1cc55e4e0db489ad24b5306879d8c942a1fb0e59884"}, // was 976ca4d880ff… cd944ac7e9fc…
		// text 15f68703f8eee70c09b222ee86c6d67d584d64f8189b1b9d7b9ca1f1e65b841f
		{"dissmo cache capacity", dense, dissmo(4, RBF(1.0/16), 0),
			"9919158df93ba897bc884ede87ba7cc99a300497a6ec2e0da257825ef17bab71",
			"e91b5c586ccba2b50471560ea9e7ff8513f98a60547e9d8fed9a9aec6b93e000"}, // was aa03a395bce7… ac59fae48645…
		// text d5f757fc8eac58db7286d84e6ceba9f26fba0f4486cfe6c9ac72064612bfdd48
		{"dissmo sparse-rbf", sparse, dissmo(3, RBF(1.0/40), 0),
			"10d5cc88dd7939e7063bf1b5590847990bd937f39cbfdefb2d8da48246f5a4ae",
			"97caeeed9787a5e9d1a67ef5682b8800a4f18874b3d3af8db8963b40cdfadd09"},
		// text 01d96cbff4e43fddc7f80307bfe1d7967b3c769864c6cc6eda50a79d9d1680f3
		{"dissmo dense-linear", dense, dissmo(3, Kernel{Kind: kernel.Linear}, 3000),
			"8ff44fcf4bf2242dd38705d232ea020c2687b0308a724d5c8e0585eb64d7b136",
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
		if file, bin := hex.EncodeToString(h.Sum(nil)), out.Set.Hash(); file != tc.file || bin != tc.bin {
			t.Errorf("%s: file digest %s binary digest %s, want %s %s", tc.name, file, bin, tc.file, tc.bin)
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
