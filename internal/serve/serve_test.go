package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/trace"
)

// testSet builds a small two-partition RBF model set synthetically (no
// training) so tests are fast and fully deterministic.
func testSet(seed int64, feats int) *model.Set {
	rng := rand.New(rand.NewSource(seed))
	k := kernel.RBF(0.3)
	mk := func(nsv int) *model.Model {
		buf := make([]float64, nsv*feats)
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
		m := &model.Model{
			Kernel:   k,
			SVX:      la.NewDense(nsv, feats, buf),
			SVY:      make([]float64, nsv),
			Alpha:    make([]float64, nsv),
			B:        0.1 * rng.NormFloat64(),
			Fallback: 1,
		}
		for i := 0; i < nsv; i++ {
			m.SVY[i] = float64(2*(i%2) - 1)
			m.Alpha[i] = 0.01 + rng.Float64()
		}
		return m
	}
	centers := make([]float64, 2*feats)
	for i := range centers {
		centers[i] = rng.NormFloat64()
	}
	return &model.Set{
		Models:  []*model.Model{mk(37), mk(21)},
		Centers: la.NewDense(2, feats, centers),
	}
}

// fallbackSet builds a set whose single model has no support vectors, so
// every prediction returns Fallback — the torn-model probe: a reader that
// saw a consistent snapshot returns a uniform label vector.
func fallbackSet(label float64, feats int) *model.Set {
	m := &model.Model{
		Kernel:   kernel.RBF(0.3),
		SVX:      la.Zeros(0, feats),
		Fallback: label,
	}
	return model.Single(m, make([]float64, feats))
}

func queries(rng *rand.Rand, n, feats int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, feats)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		out[i] = row
	}
	return out
}

func postPredict(t *testing.T, url string, req PredictRequest) (*PredictResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &pr, resp
}

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Start("localhost:0", cfg)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestHTTPSmoke walks the whole surface: health gating, prediction with
// decisions, model listing, metrics exposition, and hot-reload from disk.
func TestHTTPSmoke(t *testing.T) {
	s := startTestServer(t, Config{})

	// No models yet: healthz must gate, predict must 503/404.
	resp, err := http.Get(s.URL() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no models: got %d, want 503", resp.StatusCode)
	}

	set := testSet(1, 6)
	if _, err := s.AddModelSet("default", set); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}
	resp, err = http.Get(s.URL() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with a model: got %d, want 200", resp.StatusCode)
	}

	rng := rand.New(rand.NewSource(2))
	qs := queries(rng, 9, 6)
	pr, resp := postPredict(t, s.URL(), PredictRequest{Queries: qs, Decisions: true})
	if pr == nil {
		t.Fatalf("predict failed: status %d", resp.StatusCode)
	}
	if len(pr.Labels) != 9 || len(pr.Decisions) != 9 {
		t.Fatalf("got %d labels, %d decisions, want 9 each", len(pr.Labels), len(pr.Decisions))
	}
	if pr.Generation != 1 {
		t.Fatalf("generation = %d, want 1", pr.Generation)
	}
	// Reference: the same queries through the library path, bit-identical.
	flat := make([]float64, 0, 9*6)
	for _, q := range qs {
		flat = append(flat, q...)
	}
	qm := la.NewDense(9, 6, flat)
	wantLabels := set.PredictAll(qm)
	wantDecs := set.DecisionAll(qm)
	for i := range wantLabels {
		if pr.Labels[i] != wantLabels[i] {
			t.Fatalf("label[%d] = %v, want %v", i, pr.Labels[i], wantLabels[i])
		}
		if pr.Decisions[i] != wantDecs[i] {
			t.Fatalf("decision[%d] = %v, want %v", i, pr.Decisions[i], wantDecs[i])
		}
	}

	// /models lists the set with its shape.
	resp, err = http.Get(s.URL() + "/models")
	if err != nil {
		t.Fatalf("GET /models: %v", err)
	}
	var infos []modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatalf("decode /models: %v", err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "default" || infos[0].Partitions != 2 || infos[0].Features != 6 {
		t.Fatalf("unexpected /models listing: %+v", infos)
	}

	// /metrics exposes the serve families with the traffic counted.
	resp, err = http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"casvm_serve_requests_total 1",
		"casvm_serve_queries_total 9",
		"casvm_serve_batches_total",
		"casvm_serve_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// Hot-reload from disk: save a different set, reload, generation bumps,
	// and predictions switch to the new model.
	dir := t.TempDir()
	path := filepath.Join(dir, "model.casvm")
	set2 := testSet(99, 6)
	saveSetFile(t, path, set2)
	reloadBody := bytes.NewReader([]byte(fmt.Sprintf(`{"path": %q}`, path)))
	resp, err = http.Post(s.URL()+"/models/default/reload", "application/json", reloadBody)
	if err != nil {
		t.Fatalf("POST reload: %v", err)
	}
	var info modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode reload response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Generation != 2 || info.FileSHA256 == "" {
		t.Fatalf("reload: status %d info %+v", resp.StatusCode, info)
	}
	pr, resp = postPredict(t, s.URL(), PredictRequest{Queries: qs})
	if pr == nil {
		t.Fatalf("predict after reload: status %d", resp.StatusCode)
	}
	if pr.Generation != 2 {
		t.Fatalf("generation after reload = %d, want 2", pr.Generation)
	}
}

func saveSetFile(t *testing.T, path string, set *model.Set) {
	t.Helper()
	var buf bytes.Buffer
	if err := model.SaveSet(&buf, set); err != nil {
		t.Fatalf("SaveSet: %v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("write model file: %v", err)
	}
}

// TestBatchEquivalence is the batched-vs-sequential property: whatever way
// concurrent requests coalesce into tile batches, each request's labels and
// decisions are bit-identical to evaluating that request alone through the
// library path. Runs under -race in `make check`.
func TestBatchEquivalence(t *testing.T) {
	set := testSet(7, 5)
	s := startTestServer(t, Config{
		Batch: BatcherConfig{MaxBatch: 32, MaxDelay: time.Millisecond},
	})
	if _, err := s.AddModelSet("default", set); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}

	const clients = 8
	const perClient = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + int64(c)))
			for it := 0; it < perClient; it++ {
				n := 1 + rng.Intn(12)
				qs := queries(rng, n, 5)
				pr, resp := postPredict(t, s.URL(), PredictRequest{Queries: qs, Decisions: true})
				if pr == nil {
					errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				flat := make([]float64, 0, n*5)
				for _, q := range qs {
					flat = append(flat, q...)
				}
				qm := la.NewDense(n, 5, flat)
				want := set.PredictAll(qm)
				wantD := set.DecisionAll(qm)
				for i := range want {
					if pr.Labels[i] != want[i] || pr.Decisions[i] != wantD[i] {
						errs <- fmt.Errorf("client %d it %d query %d: got (%v, %v), want (%v, %v)",
							c, it, i, pr.Labels[i], pr.Decisions[i], want[i], wantD[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestHotReloadNeverTearsModel hammers predictions while the model is
// hot-swapped between two fallback-only sets that disagree on every label
// (+1 vs −1). Every response must be uniform: a mixed label vector would
// mean one batch saw two model versions. Runs under -race in `make check`.
func TestHotReloadNeverTearsModel(t *testing.T) {
	const feats = 4
	s := startTestServer(t, Config{
		Batch: BatcherConfig{MaxBatch: 16, MaxDelay: 200 * time.Microsecond},
	})
	if _, err := s.AddModelSet("default", fallbackSet(1, feats)); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		label := -1.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.AddModelSet("default", fallbackSet(label, feats)); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			label = -label
		}
	}()

	const clients = 6
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for it := 0; it < perClient; it++ {
				n := 2 + rng.Intn(6)
				pr, resp := postPredict(t, s.URL(), PredictRequest{Queries: queries(rng, n, feats)})
				if pr == nil {
					errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				for i := 1; i < len(pr.Labels); i++ {
					if pr.Labels[i] != pr.Labels[0] {
						errs <- fmt.Errorf("torn model: response %v mixes labels (generation %d)",
							pr.Labels, pr.Generation)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// batcherHarness wires a bare batcher (no HTTP) to a metrics registry so
// the flush-path counters can be asserted directly.
func batcherHarness(t *testing.T, set *model.Set, cfg BatcherConfig) (*Batcher, *trace.Registry) {
	t.Helper()
	b, mreg, _ := arrivalsHarness(t, set, cfg)
	return b, mreg
}

// arrivalsHarness is batcherHarness plus the arrivals count the batcher
// consults, which the test announces on in place of the HTTP handler.
func arrivalsHarness(t *testing.T, set *model.Set, cfg BatcherConfig) (*Batcher, *trace.Registry, *arrivals) {
	t.Helper()
	reg := NewRegistry()
	h, _, err := reg.AddSet("m", set)
	if err != nil {
		t.Fatalf("AddSet: %v", err)
	}
	mreg := trace.NewRegistry()
	bm := batcherMetrics{
		batches:    mreg.Counter("batches", ""),
		flushFull:  mreg.Counter("flush_full", ""),
		flushTimer: mreg.Counter("flush_timer", ""),
		flushIdle:  mreg.Counter("flush_idle", ""),
		batchSize:  mreg.Histogram("batch_size", "", trace.ExpBuckets(1, 2, 13)),
		queueDepth: mreg.Gauge("queue_depth", ""),
	}
	arr := &arrivals{}
	b := newBatcher(h, cfg, bm, arr)
	t.Cleanup(b.Close)
	return b, mreg, arr
}

func flatQueries(rng *rand.Rand, n, feats int) []float64 {
	buf := make([]float64, n*feats)
	for i := range buf {
		buf[i] = rng.NormFloat64()
	}
	return buf
}

// TestBatcherFlushOnMaxBatch pins the throughput path: when pending queries
// reach MaxBatch the flush happens immediately, long before MaxDelay.
func TestBatcherFlushOnMaxBatch(t *testing.T) {
	set := testSet(3, 4)
	b, mreg := batcherHarness(t, set, BatcherConfig{MaxBatch: 8, MaxDelay: time.Hour})
	rng := rand.New(rand.NewSource(4))

	done := make(chan struct{})
	go func() {
		defer close(done)
		out, err := b.Predict(flatQueries(rng, 8, 4), 8, 4, false)
		if err != nil {
			t.Errorf("predict: %v", err)
			return
		}
		if len(out.labels) != 8 || out.batchSize != 8 {
			t.Errorf("got %d labels, batch %d, want 8, 8", len(out.labels), out.batchSize)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("max-batch flush did not fire (MaxDelay is 1h, so the size trigger is broken)")
	}
	snap := mreg.Snapshot()
	if snap["flush_full"] != 1 || snap["flush_timer"] != 0 {
		t.Fatalf("flush counters: full=%v timer=%v, want 1, 0", snap["flush_full"], snap["flush_timer"])
	}
}

// TestBatcherFlushOnMaxDelay pins the timer path: a request that was
// announced and then stalls (it never enqueues, never retires) holds the
// pending batch only until MaxDelay expires.
func TestBatcherFlushOnMaxDelay(t *testing.T) {
	set := testSet(3, 4)
	b, mreg, arr := arrivalsHarness(t, set, BatcherConfig{MaxBatch: 1 << 20, MaxDelay: 20 * time.Millisecond})
	rng := rand.New(rand.NewSource(5))

	arr.announce() // the stalled arrival
	start := time.Now()
	out, err := b.Predict(flatQueries(rng, 3, 4), 3, 4, true)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if len(out.labels) != 3 || len(out.decisions) != 3 {
		t.Fatalf("got %d labels, %d decisions, want 3 each", len(out.labels), len(out.decisions))
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("flushed after %v, before the 20ms delay budget — the announced arrival did not gate", elapsed)
	}
	snap := mreg.Snapshot()
	if snap["flush_timer"] != 1 || snap["flush_full"] != 0 || snap["flush_idle"] != 0 {
		t.Fatalf("flush counters: full=%v timer=%v idle=%v, want 0, 1, 0",
			snap["flush_full"], snap["flush_timer"], snap["flush_idle"])
	}
}

// TestBatcherWidthMismatch: a request whose width disagrees with the model
// fails alone; cohabiting requests in the same flush still succeed.
func TestBatcherWidthMismatch(t *testing.T) {
	set := testSet(3, 4)
	b, _ := batcherHarness(t, set, BatcherConfig{MaxBatch: 1 << 20, MaxDelay: 10 * time.Millisecond})
	rng := rand.New(rand.NewSource(6))
	goodRows := flatQueries(rng, 2, 4)
	badRows := flatQueries(rng, 2, 7)

	var wg sync.WaitGroup
	wg.Add(2)
	var goodErr, badErr error
	var good batchOut
	go func() {
		defer wg.Done()
		good, goodErr = b.Predict(goodRows, 2, 4, false)
	}()
	go func() {
		defer wg.Done()
		_, badErr = b.Predict(badRows, 2, 7, false)
	}()
	wg.Wait()
	if goodErr != nil {
		t.Fatalf("well-formed request failed: %v", goodErr)
	}
	if len(good.labels) != 2 {
		t.Fatalf("got %d labels, want 2", len(good.labels))
	}
	if badErr == nil || !strings.Contains(badErr.Error(), "features") {
		t.Fatalf("width-mismatched request: err = %v, want feature-width error", badErr)
	}
}

// TestRegistryResolve covers the model-name resolution rules.
func TestRegistryResolve(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Resolve(""); err == nil {
		t.Fatal("resolve on empty registry should fail")
	}
	if _, _, err := reg.AddSet("alpha", testSet(1, 3)); err != nil {
		t.Fatalf("AddSet: %v", err)
	}
	h, err := reg.Resolve("") // sole model
	if err != nil || h.Name != "alpha" {
		t.Fatalf("sole-model resolve: %v, %v", h, err)
	}
	if _, _, err := reg.AddSet("default", testSet(2, 3)); err != nil {
		t.Fatalf("AddSet: %v", err)
	}
	h, err = reg.Resolve("") // ambiguous → "default"
	if err != nil || h.Name != "default" {
		t.Fatalf("default resolve: %v, %v", h, err)
	}
	if _, err := reg.Resolve("nope"); err == nil {
		t.Fatal("unknown model should fail")
	}
}

// TestReloadBadFileKeepsServing: a reload pointed at a corrupt file errors
// out and leaves the serving snapshot untouched.
func TestReloadBadFileKeepsServing(t *testing.T) {
	reg := NewRegistry()
	h, snap, err := reg.AddSet("m", testSet(1, 3))
	if err != nil {
		t.Fatalf("AddSet: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.casvm")
	if err := os.WriteFile(bad, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Reload(h, bad); err == nil {
		t.Fatal("reload of corrupt file should fail")
	}
	if got := h.Snapshot(); got != snap {
		t.Fatalf("snapshot changed after failed reload: %+v", got)
	}
	// In-memory model with no path cannot be re-read implicitly.
	if _, err := reg.Reload(h, ""); err == nil {
		t.Fatal("implicit reload of memory-loaded model should fail")
	}
}

// TestEventsStreamsQPS reads one SSE frame off /events and checks the
// sample carries the counters.
func TestEventsStreamsQPS(t *testing.T) {
	s := startTestServer(t, Config{PollInterval: 20 * time.Millisecond})
	if _, err := s.AddModelSet("default", testSet(1, 4)); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	if pr, resp := postPredict(t, s.URL(), PredictRequest{Queries: queries(rng, 5, 4)}); pr == nil {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}

	resp, err := http.Get(s.URL() + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	buf := make([]byte, 4096)
	deadline := time.Now().Add(5 * time.Second)
	var acc strings.Builder
	for time.Now().Before(deadline) {
		n, err := resp.Body.Read(buf)
		acc.Write(buf[:n])
		if strings.Contains(acc.String(), "\n\n") {
			break
		}
		if err != nil {
			break
		}
	}
	frame := acc.String()
	idx := strings.Index(frame, "data: ")
	if idx < 0 {
		t.Fatalf("no SSE frame in %q", frame)
	}
	line := frame[idx+len("data: "):]
	line = line[:strings.Index(line, "\n")]
	var sample qpsSample
	if err := json.Unmarshal([]byte(line), &sample); err != nil {
		t.Fatalf("bad SSE payload %q: %v", line, err)
	}
	if sample.RequestsTotal != 1 || sample.QueriesTotal != 5 {
		t.Fatalf("sample %+v, want requests=1 queries=5", sample)
	}
}

// TestDecodePredictRequestRejects tables the decoder's validation errors.
func TestDecodePredictRequestRejects(t *testing.T) {
	lim := Limits{MaxQueries: 4, MaxFeatures: 8, MaxBody: 1 << 16}
	cases := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"bad json", `{"queries": [[1,`},
		{"no queries", `{"queries": []}`},
		{"null queries", `{}`},
		{"too many queries", `{"queries": [[1],[1],[1],[1],[1]]}`},
		{"zero width", `{"queries": [[]]}`},
		{"too wide", `{"queries": [[1,2,3,4,5,6,7,8,9]]}`},
		{"ragged", `{"queries": [[1,2],[1]]}`},
		{"huge literal", `{"queries": [[1e999]]}`},
		{"body over limit", `{"queries": [[` + strings.Repeat("1,", 40000) + `1]]}`},
	}
	for _, c := range cases {
		if _, err := DecodePredictRequest([]byte(c.body), lim); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.body)
		}
	}
	// And the happy path still decodes.
	req, err := DecodePredictRequest([]byte(`{"queries": [[1,2],[3,4]], "decisions": true}`), lim)
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if req.Features() != 2 || len(req.Queries) != 2 || !req.Decisions {
		t.Fatalf("decoded %+v", req)
	}
	if got := req.flatten(); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("flatten: %v", got)
	}
}
