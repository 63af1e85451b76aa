package main

import (
	"path/filepath"
	"strings"
	"testing"

	"casvm"
)

// TestRunCompressRoundTrip drives the CLI over a real (tiny) trained model:
// compress with a budget, verify the output model loads, respects the
// budget, and carries the measured accuracy delta in its metadata.
func TestRunCompressRoundTrip(t *testing.T) {
	ds, err := casvm.GenerateDataset(casvm.MixtureSpec{
		Name: "compress-cli", Train: 300, Test: 100, Features: 5, Clusters: 4,
		Separation: 2.5, Noise: 0.7, PosFrac: []float64{0.5}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := casvm.DefaultParams(casvm.MethodRACA, 4)
	p.Kernel = casvm.RBF(0.2)
	out, err := casvm.Train(ds.X, ds.Y, p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "full.model")
	outP := filepath.Join(dir, "small.model")
	evalP := filepath.Join(dir, "eval.svm")
	if err := casvm.SaveModelSet(in, out.Set); err != nil {
		t.Fatal(err)
	}
	if err := casvm.WriteLIBSVMFile(evalP, &casvm.Dataset{X: ds.TestX, Y: ds.TestY}); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	err = run([]string{"-in", in, "-out", outP, "-budget", "8", "-seed", "5", "-eval", evalP}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "compressed") || !strings.Contains(buf.String(), "accuracy:") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}

	small, err := casvm.LoadModelSet(outP)
	if err != nil {
		t.Fatal(err)
	}
	for j, m := range small.Models {
		if m.NSV() > 8 {
			t.Fatalf("model %d has %d SVs, budget 8", j, m.NSV())
		}
	}
	for _, key := range []string{"compress_budget", "accuracy_delta"} {
		if small.Meta[key] == "" {
			t.Fatalf("output model missing %s metadata; have %v", key, small.Meta)
		}
	}

	// Flag validation errors, not exits.
	if err := run([]string{"-in", in}, &buf); err == nil {
		t.Fatal("missing -out should error")
	}
}

// TestRunFaceModel runs the README's compression command on the model of
// its `casvm-train -data face -method ra-ca -p 8 -model full.model` run,
// measured on the face set's held-out split written as face-test.svm, and
// holds the output to the README's transcript.
func TestRunFaceModel(t *testing.T) {
	ds, entry, err := casvm.LoadDataset("face", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := casvm.DefaultParams(casvm.MethodRACA, 8)
	p.Kernel = casvm.RBF(entry.GammaOrDefault())
	out, _, err := casvm.TrainDataset(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	full, small, eval := filepath.Join(dir, "full.model"), filepath.Join(dir, "small.model"), filepath.Join(dir, "face-test.svm")
	if err := casvm.SaveModelSet(full, out.Set); err != nil {
		t.Fatal(err)
	}
	if err := casvm.WriteLIBSVMFile(eval, &casvm.Dataset{X: ds.TestX, Y: ds.TestY}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-in", full, "-out", small, "-budget", "32", "-eval", eval}, &buf); err != nil {
		t.Fatal(err)
	}
	want := "compressed 1058 → 256 SVs (ratio 0.242) across 8 models\n" +
		"accuracy: full 0.9480 → compressed 0.9440 (delta -0.0040)\n" +
		"wrote " + small + "\n"
	if buf.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", buf.String(), want)
	}
}
