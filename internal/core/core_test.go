package core

import (
	"math"
	"slices"
	"testing"

	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/smo"
)

// testSet builds a small clustered dataset every method should learn well.
func testSet(t *testing.T, m int) *data.Dataset {
	t.Helper()
	d, err := data.Generate(data.MixtureSpec{
		Name: "core-test", Train: m, Test: m / 4, Features: 8, Clusters: 4,
		Separation: 7, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02,
		Margin: 1.0, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func paramsFor(m Method, p int, d *data.Dataset) Params {
	pr := DefaultParams(m, p)
	pr.Kernel = kernel.RBF(1.0 / (2 * float64(d.Features())))
	return pr
}

func TestAllMethodsTrainAndPredict(t *testing.T) {
	d := testSet(t, 480)
	for _, m := range Methods() {
		pr := paramsFor(m, 4, d)
		out, err := Train(d.X, d.Y, pr)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		acc := out.Set.Accuracy(d.TestX, d.TestY)
		if acc < 0.88 {
			t.Errorf("%s: accuracy %.3f < 0.88", m, acc)
		}
		if out.Stats.Iters <= 0 {
			t.Errorf("%s: iters=%d", m, out.Stats.Iters)
		}
		// Iters is the critical path the per-node profile shows: the sum of
		// each tree layer's slowest node, the slowest rank otherwise.
		crit := slices.Max(out.Stats.NodeIters)
		if layers := out.Stats.Layers; len(layers) > 0 {
			crit = 0
			for _, l := range layers {
				crit += l.MaxIters()
			}
			if len(layers) != TreeLayers(4) {
				t.Errorf("%s: %d tree layers, TreeLayers(4) = %d", m, len(layers), TreeLayers(4))
			}
		}
		if out.Stats.Iters != crit {
			t.Errorf("%s: iters=%d, the profile's critical path %d", m, out.Stats.Iters, crit)
		}
		if out.Stats.SVs <= 0 {
			t.Errorf("%s: svs=%d", m, out.Stats.SVs)
		}
		if out.Stats.TotalSec <= 0 {
			t.Errorf("%s: TotalSec=%v", m, out.Stats.TotalSec)
		}
		if out.Stats.TrainSec <= 0 {
			t.Errorf("%s: TrainSec=%v", m, out.Stats.TrainSec)
		}
		if out.Stats.Wall <= 0 {
			t.Errorf("%s: Wall=%v", m, out.Stats.Wall)
		}
	}
}

func TestDisSMOMatchesSerialSMO(t *testing.T) {
	d := testSet(t, 300)
	pr := paramsFor(MethodDisSMO, 4, d)
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := smo.Solve(d.X, d.Y, smo.Config{C: pr.C, Tol: pr.Tol, Kernel: pr.Kernel}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same algorithm up to float32 scatter rounding: iteration counts
	// must be close and accuracies equal-ish.
	ratio := float64(out.Stats.Iters) / float64(serial.Iters)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("distributed iters %d vs serial %d", out.Stats.Iters, serial.Iters)
	}
	distAcc := out.Set.Accuracy(d.TestX, d.TestY)
	// Serial accuracy via a model built from the serial solution.
	serialSet := Output{}
	_ = serialSet
	if distAcc < 0.9 {
		t.Errorf("dis-smo accuracy %.3f", distAcc)
	}
}

func TestDisSMOSingleRankEqualsSerial(t *testing.T) {
	d := testSet(t, 200)
	pr := paramsFor(MethodDisSMO, 1, d)
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.CommBytes != 0 {
		t.Errorf("P=1 should move no bytes, got %d", out.Stats.CommBytes)
	}
	if out.Stats.Iters == 0 {
		t.Error("no iterations")
	}
}

func TestCascadeLayerProfile(t *testing.T) {
	d := testSet(t, 480)
	pr := paramsFor(MethodCascade, 8, d)
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	// 8 nodes → log2(8)+1 = 4 layers (Table V shape).
	if len(out.Stats.Layers) != 4 {
		t.Fatalf("layers=%d want 4", len(out.Stats.Layers))
	}
	wantNodes := []int{8, 4, 2, 1}
	prevSVs := math.MaxInt
	for i, l := range out.Stats.Layers {
		if len(l.Nodes) != wantNodes[i] {
			t.Errorf("layer %d has %d nodes, want %d", l.Layer, len(l.Nodes), wantNodes[i])
		}
		if l.MaxTime() <= 0 {
			t.Errorf("layer %d has zero time", l.Layer)
		}
		// The SV population must not grow up the tree (the filter
		// property of Cascade).
		if s := l.SumSVs(); s > prevSVs {
			t.Errorf("layer %d SVs grew: %d > %d", l.Layer, s, prevSVs)
		} else {
			prevSVs = s
		}
	}
	// Layer 1 samples are the even split.
	for _, n := range out.Stats.Layers[0].Nodes {
		if n.Samples != 60 {
			t.Errorf("layer-1 node %d has %d samples, want 60", n.Rank, n.Samples)
		}
	}
}

func TestDCSVMPassesAllSamples(t *testing.T) {
	d := testSet(t, 320)
	pr := paramsFor(MethodDCSVM, 4, d)
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	last := out.Stats.Layers[len(out.Stats.Layers)-1]
	if len(last.Nodes) != 1 || last.Nodes[0].Samples != 320 {
		t.Errorf("DC-SVM final layer should train on all samples, got %+v", last.Nodes)
	}
	if out.Stats.KMeansIters == 0 {
		t.Error("DC-SVM should run K-means")
	}
}

func TestDCFilterSheddingVsDCSVM(t *testing.T) {
	d := testSet(t, 320)
	outF, err := Train(d.X, d.Y, paramsFor(MethodDCFilter, 4, d))
	if err != nil {
		t.Fatal(err)
	}
	outD, err := Train(d.X, d.Y, paramsFor(MethodDCSVM, 4, d))
	if err != nil {
		t.Fatal(err)
	}
	lastF := outF.Stats.Layers[len(outF.Stats.Layers)-1].Nodes[0]
	lastD := outD.Stats.Layers[len(outD.Stats.Layers)-1].Nodes[0]
	if lastF.Samples >= lastD.Samples {
		t.Errorf("DC-Filter final layer %d samples should be < DC-SVM's %d",
			lastF.Samples, lastD.Samples)
	}
	if outF.Stats.CommBytes >= outD.Stats.CommBytes {
		t.Errorf("DC-Filter bytes %d should be < DC-SVM bytes %d",
			outF.Stats.CommBytes, outD.Stats.CommBytes)
	}
}

func TestCASVMZeroCommunication(t *testing.T) {
	d := testSet(t, 320)
	pr := paramsFor(MethodRACA, 4, d)
	pr.Placement = PlacementDistributed // casvm2
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.CommBytes != 0 || out.Stats.CommOps != 0 {
		t.Errorf("casvm2 RA-CA must move zero bytes, got %d bytes %d ops",
			out.Stats.CommBytes, out.Stats.CommOps)
	}
	pr.Placement = PlacementRoot // casvm1
	out1, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Stats.CommBytes == 0 {
		t.Error("casvm1 must scatter the data")
	}
	// Same partition either way → same iteration counts.
	if out.Stats.Iters == 0 || out1.Stats.Iters == 0 {
		t.Error("no iterations")
	}
}

func TestFCFSCABalancedPartition(t *testing.T) {
	d := testSet(t, 400)
	pr := paramsFor(MethodFCFSCA, 4, d)
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	total, min, max := 0, math.MaxInt, 0
	for _, s := range out.Stats.PartSizes {
		total += s
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if total != 400 {
		t.Errorf("partition sizes sum %d want 400", total)
	}
	if max-min > 40 {
		t.Errorf("FCFS-CA sizes %v too imbalanced", out.Stats.PartSizes)
	}
}

func TestCPSVMPartitionCoversData(t *testing.T) {
	d := testSet(t, 320)
	out, err := Train(d.X, d.Y, paramsFor(MethodCPSVM, 4, d))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range out.Stats.PartSizes {
		total += s
	}
	if total != 320 {
		t.Errorf("CP-SVM partition sum %d", total)
	}
	if out.Set.P() != 4 {
		t.Errorf("CP-SVM should produce 4 model files, got %d", out.Set.P())
	}
	if out.Stats.KMeansIters == 0 {
		t.Error("CP-SVM should run K-means")
	}
}

func TestAllMethodsSingleRank(t *testing.T) {
	d := testSet(t, 120)
	for _, m := range Methods() {
		out, err := Train(d.X, d.Y, paramsFor(m, 1, d))
		if err != nil {
			t.Fatalf("%s P=1: %v", m, err)
		}
		if acc := out.Set.Accuracy(d.TestX, d.TestY); acc < 0.85 {
			t.Errorf("%s P=1 accuracy %.3f", m, acc)
		}
	}
}

func TestNonPowerOfTwoRanks(t *testing.T) {
	d := testSet(t, 330)
	for _, m := range []Method{MethodCascade, MethodDCSVM, MethodDisSMO, MethodRACA} {
		out, err := Train(d.X, d.Y, paramsFor(m, 3, d))
		if err != nil {
			t.Fatalf("%s P=3: %v", m, err)
		}
		if acc := out.Set.Accuracy(d.TestX, d.TestY); acc < 0.85 {
			t.Errorf("%s P=3 accuracy %.3f", m, acc)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	d := testSet(t, 60)
	pr := paramsFor(MethodRACA, 4, d)
	if _, err := Train(nil, d.Y, pr); err == nil {
		t.Error("nil X should fail")
	}
	pr.P = 0
	if _, err := Train(d.X, d.Y, pr); err == nil {
		t.Error("P=0 should fail")
	}
	pr = paramsFor(MethodRACA, 4, d)
	pr.C = -1
	if _, err := Train(d.X, d.Y, pr); err == nil {
		t.Error("C<0 should fail")
	}
	pr = paramsFor("bogus", 4, d)
	if _, err := Train(d.X, d.Y, pr); err == nil {
		t.Error("bad method should fail")
	}
	pr = paramsFor(MethodRACA, 70, d)
	if _, err := Train(d.X, d.Y, pr); err == nil {
		t.Error("P>m should fail")
	}
}

func TestDeterminism(t *testing.T) {
	d := testSet(t, 240)
	for _, m := range []Method{MethodDisSMO, MethodCascade, MethodCPSVM, MethodRACA} {
		a, err := Train(d.X, d.Y, paramsFor(m, 4, d))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Train(d.X, d.Y, paramsFor(m, 4, d))
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats.Iters != b.Stats.Iters || a.Stats.SVs != b.Stats.SVs ||
			a.Stats.CommBytes != b.Stats.CommBytes {
			t.Errorf("%s not deterministic: iters %d/%d svs %d/%d bytes %d/%d",
				m, a.Stats.Iters, b.Stats.Iters, a.Stats.SVs, b.Stats.SVs,
				a.Stats.CommBytes, b.Stats.CommBytes)
		}
	}
}

func TestCommHierarchy(t *testing.T) {
	// The Table X ordering on a shared workload: CA (casvm2) < Cascade <
	// CP-SVM < DC-SVM, and Dis-SMO has by far the most operations
	// (Table XI).
	d := testSet(t, 480)
	bytes := map[Method]int64{}
	ops := map[Method]int64{}
	for _, m := range Methods() {
		out, err := Train(d.X, d.Y, paramsFor(m, 4, d))
		if err != nil {
			t.Fatal(err)
		}
		bytes[m] = out.Stats.CommBytes
		ops[m] = out.Stats.CommOps
	}
	if bytes[MethodRACA] != 0 {
		t.Errorf("RA-CA bytes %d", bytes[MethodRACA])
	}
	if !(bytes[MethodCascade] < bytes[MethodDCSVM]) {
		t.Errorf("cascade %d !< dcsvm %d", bytes[MethodCascade], bytes[MethodDCSVM])
	}
	if !(bytes[MethodCPSVM] < bytes[MethodDCSVM]) {
		t.Errorf("cpsvm %d !< dcsvm %d", bytes[MethodCPSVM], bytes[MethodDCSVM])
	}
	if ops[MethodDisSMO] < 10*ops[MethodCascade] {
		t.Errorf("dis-smo ops %d should dwarf cascade ops %d", ops[MethodDisSMO], ops[MethodCascade])
	}
}
