package serve

import (
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/la"
)

// TestServedFileDecidesAsSaved: a dense RA-CA set saved to a file and
// registered from that file serves what was trained — the file keeps the
// models dense, so /predict's labels and decisions are Set.EvalAll's on the
// in-memory set, bit for bit.
func TestServedFileDecidesAsSaved(t *testing.T) {
	d, err := data.Generate(data.MixtureSpec{Name: "serve-file", Train: 240, Features: 8, Clusters: 4,
		Separation: 6, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02, Margin: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pr := core.DefaultParams(core.MethodRACA, 4)
	pr.Kernel = kernel.RBF(1.0 / 8)
	out, err := core.Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	set := out.Set
	path := filepath.Join(t.TempDir(), "ra-ca.model")
	saveSetFile(t, path, set)
	s := startTestServer(t, Config{})
	snap, err := s.AddModel("default", path)
	if err != nil {
		t.Fatal(err)
	}
	for j, m := range snap.Set.Models {
		if m.SVX.Sparse() {
			t.Fatalf("model %d of a dense set loaded as CSR", j)
		}
	}
	qs := queries(rand.New(rand.NewSource(5)), 40, 8)
	res, resp := postPredict(t, s.URL(), PredictRequest{Queries: qs, Decisions: true})
	if res == nil {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	flat := make([]float64, 0, 40*8)
	for _, q := range qs {
		flat = append(flat, q...)
	}
	labels, decs := set.EvalAll(la.NewDense(40, 8, flat))
	for i := range labels {
		if res.Labels[i] != labels[i] || math.Float64bits(res.Decisions[i]) != math.Float64bits(decs[i]) {
			t.Fatalf("query %d: served %v (%v), trained set decides %v (%v)", i, res.Decisions[i], res.Labels[i], decs[i], labels[i])
		}
	}
}

// TestReloadTruncatedFileKeepsServing: a reload that reads a model file its
// writer has not finished is refused, and the snapshot it would have
// replaced keeps serving.
func TestReloadTruncatedFileKeepsServing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.model")
	set := testSet(3, 4)
	saveSetFile(t, path, set)
	s := startTestServer(t, Config{})
	before, err := s.AddModel("default", path)
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file[:len(file)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.URL()+"/models/default/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload of a truncated file: %d, want 400", resp.StatusCode)
	}
	if got := s.Registry().Handles()[0].Snapshot(); got != before {
		t.Fatalf("snapshot replaced by a failed reload: %+v", got)
	}
	qs := queries(rand.New(rand.NewSource(4)), 5, 4)
	res, resp := postPredict(t, s.URL(), PredictRequest{Queries: qs})
	if res == nil || res.Generation != 1 {
		t.Fatalf("predict after the failed reload: status %d, %+v", resp.StatusCode, res)
	}
}
