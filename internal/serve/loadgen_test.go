package serve

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRunLoadAgainstServer drives the shared load generator (the harness
// behind `make bench-serve` and `casvm-serve -selfbench`) against a live
// server in both wire encodings and both stopping modes.
func TestRunLoadAgainstServer(t *testing.T) {
	s := startTestServer(t, Config{
		Batch: BatcherConfig{MaxBatch: 64, MaxDelay: time.Millisecond},
	})
	set := testSet(21, 5)
	if _, err := s.AddModelSet("default", set); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}

	// Request-bounded, binary payloads.
	res, err := RunLoad(LoadOptions{
		URL: s.URL(), Features: 5, QueriesPerRequest: 7,
		Requests: 20, Concurrency: 3, Binary: true, Seed: 1,
	})
	if err != nil {
		t.Fatalf("binary load: %v", err)
	}
	if res.Requests != 20 || res.Errors != 0 {
		t.Fatalf("binary load: %+v", res)
	}
	if res.Queries != 20*7 || res.PredsPerSec <= 0 {
		t.Fatalf("binary load throughput: %+v", res)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("latency quantiles out of order: p50=%v p99=%v", res.P50, res.P99)
	}

	// Duration-bounded, JSON-array payloads.
	res, err = RunLoad(LoadOptions{
		URL: s.URL(), Features: 5, QueriesPerRequest: 3,
		Duration: 100 * time.Millisecond, Concurrency: 2, Seed: 2,
	})
	if err != nil {
		t.Fatalf("json load: %v", err)
	}
	if res.Requests == 0 || res.Errors != 0 {
		t.Fatalf("json load: %+v", res)
	}

	// Mis-sized queries: every request fails, so the run reports an error.
	res, err = RunLoad(LoadOptions{
		URL: s.URL(), Features: 9, Requests: 4, Concurrency: 1, Seed: 3,
	})
	if err == nil {
		t.Fatalf("load with wrong width should fail, got %+v", res)
	}
	if res.Errors == 0 {
		t.Fatalf("expected counted errors, got %+v", res)
	}

	// Option validation.
	if _, err := RunLoad(LoadOptions{URL: s.URL()}); err == nil {
		t.Fatal("Features == 0 should error")
	}
}

// TestServerAddModelFromFile covers the file-backed registration path the
// CLI uses, plus the /models listing it feeds.
func TestServerAddModelFromFile(t *testing.T) {
	s := startTestServer(t, Config{})
	dir := t.TempDir()
	path := dir + "/m.model"
	set := testSet(5, 4)
	saveSetFile(t, path, set)
	snap, err := s.AddModel("disk", path)
	if err != nil {
		t.Fatalf("AddModel: %v", err)
	}
	if snap.Path != path || snap.ModelHash != set.Hash() || snap.Generation != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	if got := s.Registry().Names(); len(got) != 1 || got[0] != "disk" {
		t.Fatalf("names %v", got)
	}
	if _, err := s.AddModel("bad", dir+"/missing.model"); err == nil {
		t.Fatal("missing file should error")
	}

	// Method and path guards on the mutation endpoints.
	resp, err := http.Get(s.URL() + "/models/disk/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(s.URL()+"/models/ghost/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("reload unknown model: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(s.URL()+"/models/disk/reload", "application/json",
		strings.NewReader(`{"path": not-json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload bad body: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(s.URL() + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: %d, want 405", resp.StatusCode)
	}

	// Implicit-path reload (no body) re-reads the same file.
	resp, err = http.Post(s.URL()+"/models/disk/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("implicit reload: %d, want 200", resp.StatusCode)
	}
	if gen := s.Registry().Handles()[0].Snapshot().Generation; gen != 2 {
		t.Fatalf("generation %d after reload, want 2", gen)
	}
}
