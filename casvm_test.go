package casvm

import (
	"path/filepath"
	"testing"

	"casvm/internal/serve"
)

func TestFacadeEndToEnd(t *testing.T) {
	ds, entry, err := LoadDataset("toy", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(MethodRACA, 4)
	p.Kernel = RBF(entry.GammaOrDefault())
	out, acc, err := TrainDataset(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("accuracy %.3f", acc)
	}
	if out.Stats.CommBytes != 0 {
		t.Errorf("RA-CA casvm2 moved %d bytes", out.Stats.CommBytes)
	}

	// Model persistence round trip.
	path := filepath.Join(t.TempDir(), "set.model")
	if err := SaveModelSet(path, out.Set); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelSet(path)
	if err != nil {
		t.Fatal(err)
	}
	want := out.Set.PredictAll(ds.TestX)
	for i, label := range loaded.PredictAll(ds.TestX) {
		if label != want[i] {
			t.Fatalf("prediction drift at %d", i)
		}
	}
}

func TestFacadeLIBSVMRoundTrip(t *testing.T) {
	ds, _, err := LoadDataset("ijcnn", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.svm")
	if err := WriteLIBSVMFile(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := DatasetFromLIBSVM(path, ds.Features())
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != ds.M() || back.Features() != ds.Features() {
		t.Fatalf("dims %d×%d vs %d×%d", back.M(), back.Features(), ds.M(), ds.Features())
	}
	for i, v := range back.Y {
		if v != ds.Y[i] {
			t.Fatalf("label %d", i)
		}
	}
}

func TestFacadeMethodsAndNames(t *testing.T) {
	if len(Methods()) != 8 {
		t.Fatalf("methods=%d", len(Methods()))
	}
	if _, err := ParseMethod("ra-ca"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Fatal("bad method should fail")
	}
	names := DatasetNames()
	if len(names) != 9 {
		t.Fatalf("datasets=%d: %v", len(names), names)
	}
	if Hopper().Tc <= 0 || Edison().Tc <= 0 {
		t.Fatal("machine constants")
	}
}

func TestFacadeGenerate(t *testing.T) {
	ds, err := GenerateDataset(MixtureSpec{
		Name: "custom", Train: 64, Test: 16, Features: 4, Clusters: 2,
		Separation: 5, Noise: 1, PosFrac: []float64{0.5}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.M() != 64 {
		t.Fatalf("m=%d", ds.M())
	}
}

func TestLoadModelSetMissingFile(t *testing.T) {
	if _, err := LoadModelSet("/nonexistent/model.txt"); err == nil {
		t.Fatal("missing file should fail")
	}
}

// TestServedModelHashIsTrainingHash: a model trained, saved and loaded by the
// serving registry reports the ModelHash of the run that trained it, so a
// served model links back to its job although the file holds text and the
// trained set dense rows.
func TestServedModelHashIsTrainingHash(t *testing.T) {
	ds, entry, err := LoadDataset("toy", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(MethodRACA, 4)
	p.Kernel = RBF(entry.GammaOrDefault())
	out, err := Train(ds.X, ds.Y, p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(out, p, "toy", 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "set.model")
	if err := SaveModelSet(path, out.Set); err != nil {
		t.Fatal(err)
	}
	_, snap, err := serve.NewRegistry().AddFile("default", path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ModelHash != rep.ModelHash || rep.ModelHash == "" {
		t.Fatalf("served model hash %q, training run's %q", snap.ModelHash, rep.ModelHash)
	}
}
