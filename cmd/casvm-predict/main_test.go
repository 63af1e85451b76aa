package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"casvm"
)

// TestRunMatchesPerRowPredict pins the CLI's output after the switch to the
// batched PredictAll path: line-for-line identical to what the historical
// per-row Predict loop printed, including the accuracy summary.
func TestRunMatchesPerRowPredict(t *testing.T) {
	ds, err := casvm.GenerateDataset(casvm.MixtureSpec{
		Name: "predict-cli", Train: 240, Test: 80, Features: 6, Clusters: 4,
		Separation: 2.5, Noise: 0.6, PosFrac: []float64{0.5}, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := casvm.DefaultParams(casvm.MethodRACA, 4)
	p.Kernel = casvm.RBF(1.0 / 6)
	out, err := casvm.Train(ds.X, ds.Y, p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.model")
	if err := casvm.SaveModelSet(modelPath, out.Set); err != nil {
		t.Fatal(err)
	}
	testPath := filepath.Join(dir, "test.svm")
	if err := casvm.WriteLIBSVMFile(testPath, &casvm.Dataset{X: ds.TestX, Y: ds.TestY}); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	if err := run([]string{"-model", modelPath, "-file", testPath}, &got); err != nil {
		t.Fatal(err)
	}

	// Reference: each row classified alone, a one-row batch at a time.
	set, err := casvm.LoadModelSet(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	reload, err := casvm.DatasetFromLIBSVM(testPath, set.Centers.Features())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	correct := 0
	for i := 0; i < reload.X.Rows(); i++ {
		pred := set.PredictAll(reload.X.Subset([]int{i}))[0]
		fmt.Fprintf(&want, "%+.0f\n", pred)
		if pred == reload.Y[i] {
			correct++
		}
	}
	fmt.Fprintf(&want, "accuracy: %.2f%% (%d/%d)\n",
		100*float64(correct)/float64(reload.X.Rows()), correct, reload.X.Rows())

	if got.String() != want.String() {
		t.Fatalf("batched CLI output diverged from per-row reference:\ngot:\n%s\nwant:\n%s",
			got.String(), want.String())
	}
	if !strings.Contains(got.String(), "accuracy:") {
		t.Fatal("no accuracy summary in output")
	}

	// -quiet keeps only the summary line.
	var quiet strings.Builder
	if err := run([]string{"-model", modelPath, "-file", testPath, "-quiet"}, &quiet); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(quiet.String(), "\n"); n != 1 {
		t.Fatalf("-quiet printed %d lines, want 1:\n%s", n, quiet.String())
	}

	// Error paths surface as errors, not exits.
	if err := run([]string{"-model", modelPath}, &got); err == nil {
		t.Fatal("missing -file should error")
	}
	if err := run([]string{"-model", filepath.Join(dir, "nope.model"), "-file", testPath}, &got); err == nil {
		t.Fatal("missing model should error")
	}
}
