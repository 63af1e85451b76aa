package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"casvm"
	"casvm/internal/serve"
)

// syncBuffer is a stdout the test reads while run writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunServesSavedModel serves the model of the README's
// `casvm-train -data face -method ra-ca -p 8` run from the file the test
// saved, answers one POST /predict with the labels Set.PredictAll gives, and
// shuts down when its context is cancelled.
func TestRunServesSavedModel(t *testing.T) {
	ds, entry, err := casvm.LoadDataset("face", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := casvm.DefaultParams(casvm.MethodRACA, 8)
	p.Kernel = casvm.RBF(entry.GammaOrDefault())
	trained, _, err := casvm.TrainDataset(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "full.model")
	if err := casvm.SaveModelSet(path, trained.Set); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-model", "default=" + path}, &stdout) }()
	var url string
	for deadline := time.Now().Add(10 * time.Second); url == ""; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no listening line in:\n%s", stdout.String())
		}
		if _, rest, ok := strings.Cut(stdout.String(), "listening on "); ok {
			url, _, _ = strings.Cut(rest, "\n")
		}
	}
	want := "serving default from " + path + " (8 partitions, 1058 SVs, model hash " + trained.Set.Hash() + ")\n"
	if !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("banner %q, want %q", stdout.String(), want)
	}

	const nq = 32
	req := serve.PredictRequest{Queries: make([][]float64, nq)}
	for i := range req.Queries {
		row := make([]float64, ds.Features())
		for j := range row {
			row[j] = ds.TestX.At(i, j)
		}
		req.Queries[i] = row
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got serve.PredictResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /predict: status %d, %v", resp.StatusCode, err)
	}
	rows := make([]int, nq)
	for i := range rows {
		rows[i] = i
	}
	labels := trained.Set.PredictAll(ds.TestX.Subset(rows))
	if len(got.Labels) != nq {
		t.Fatalf("served %d labels for %d queries", len(got.Labels), nq)
	}
	for i, l := range labels {
		if got.Labels[i] != l {
			t.Fatalf("served label %d is %v, PredictAll %v", i, got.Labels[i], l)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !strings.HasSuffix(stdout.String(), "shutting down\n") {
		t.Errorf("no shutdown line in:\n%s", stdout.String())
	}

	for _, args := range [][]string{{}, {"-model", "no-equals-sign"}, {"-addr", "127.0.0.1:0", "-model", "default=" + path + ".missing"}} {
		if err := run(context.Background(), args, &strings.Builder{}); err == nil {
			t.Errorf("run %q: no error", args)
		}
	}
}
