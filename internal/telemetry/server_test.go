package telemetry_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"casvm/internal/cluster"
	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/mpi"
	"casvm/internal/smo"
	"casvm/internal/telemetry"
	"casvm/internal/trace"
)

// gate blocks rank 0's solver at a fixed iteration until released, pinning
// the training run mid-flight while the test scrapes the live endpoints —
// no sleeps, no racing the solver to the finish line.
type gate struct {
	release chan struct{}
	blocked chan struct{}
	once    sync.Once
}

func (g *gate) Intercept(src, dst, tag int, data []byte) mpi.Verdict { return mpi.Verdict{} }

func (g *gate) CrashCheck(rank, iter int) error {
	if rank == 0 && iter >= 10 {
		g.once.Do(func() { close(g.blocked) })
		<-g.release
	}
	return nil
}

// TestServeSmoke is the live-server smoke run `make check` invokes: start
// a real training run, hold it mid-flight, scrape /metrics and /report,
// read one SSE frame from /events, then release the run and shut down
// clean.
func TestServeSmoke(t *testing.T) {
	d, err := data.Generate(data.MixtureSpec{
		Name: "serve-test", Train: 512, Test: 16, Features: 8, Clusters: 4,
		Separation: 7, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02,
		Margin: 1.0, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{release: make(chan struct{}), blocked: make(chan struct{})}
	ring := smo.NewTelemetryRing(4096)
	reg := trace.NewRegistry()
	reg.Counter("casvm_serve_smoke_runs_total", "Smoke-test runs.").Inc()

	pr := core.DefaultParams(core.MethodRACA, 2)
	pr.Kernel = kernel.RBF(1.0 / 16)
	pr.Faults = g
	pr.Telemetry = ring
	pr.Metrics = reg

	srv, err := telemetry.Start("127.0.0.1:0", telemetry.Config{
		Metrics:      reg,
		Ring:         ring,
		Report:       func() any { return map[string]any{"telemetry_samples": ring.Total()} },
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	trainErr := make(chan error, 1)
	go func() {
		_, err := core.Train(d.X, d.Y, pr)
		trainErr <- err
	}()

	select {
	case <-g.blocked: // rank 0 is now parked mid-solve: the run is live
	case err := <-trainErr:
		t.Fatalf("training finished before the gate engaged: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("gate never engaged")
	}

	// /metrics mid-run: Prometheus framing with HELP/TYPE per family.
	body := httpGet(t, baseURL(srv)+"/metrics")
	for _, want := range []string{
		"# HELP casvm_serve_smoke_runs_total Smoke-test runs.",
		"# TYPE casvm_serve_smoke_runs_total counter",
		"casvm_serve_smoke_runs_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /report mid-run: live JSON snapshot; rank 0 recorded ≥ 10 iteration
	// samples before parking.
	var rep struct {
		TelemetrySamples uint64 `json:"telemetry_samples"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, baseURL(srv)+"/report")), &rep); err != nil {
		t.Fatalf("/report: %v", err)
	}
	if rep.TelemetrySamples < 10 {
		t.Fatalf("/report telemetry_samples=%d, want ≥ 10", rep.TelemetrySamples)
	}

	// /events: the first SSE frame decodes as an IterSample.
	s := readFirstSSE(t, baseURL(srv)+"/events")
	if s.Iter < 1 || (s.Rank != 0 && s.Rank != 1) {
		t.Fatalf("bad SSE sample: %+v", s)
	}
	if s.SVs <= 0 || s.DualObj <= 0 {
		t.Fatalf("empty SSE sample: %+v", s)
	}

	// /debug/pprof is wired on this mux.
	if body := httpGet(t, baseURL(srv)+"/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}

	close(g.release)
	select {
	case err := <-trainErr:
		if err != nil {
			t.Fatalf("train: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("training did not finish after release")
	}
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("close: %v", err)
	}
	// The listener is really gone.
	if _, err := http.Get(baseURL(srv) + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestServeClusterNamespaces is the cluster half of the serve smoke run:
// a live coordinator's registry backs /metrics (membership and job
// counters) and its job table backs the /jobs namespaces — one metrics,
// report and merged fleet trace surface per job.
func TestServeClusterNamespaces(t *testing.T) {
	coord, err := cluster.New("localhost:0", cluster.Config{LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	fl := coord.Fleet()

	srv, err := telemetry.Start("127.0.0.1:0", telemetry.Config{
		Metrics:      coord.Metrics(),
		PollInterval: 10 * time.Millisecond,
		Jobs: func() []telemetry.JobNamespace {
			var out []telemetry.JobNamespace
			for _, j := range coord.Jobs() {
				j := j
				ns := telemetry.JobNamespace{
					ID:      j.ID(),
					State:   j.State().String(),
					Metrics: j.Metrics(),
					Report:  func() any { return j.Result() },
				}
				if fl.HasTrace(j.ID()) {
					ns.Trace = func(w io.Writer) error { return fl.WriteMergedTrace(j.ID(), w) }
				}
				out = append(out, ns)
			}
			return out
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// An executor joins, a Dis-SMO job runs to completion on it, the
	// executor is revoked: the counter set must record one join, one
	// completion and one expiry.
	ctx, cancel := context.WithCancel(context.Background())
	executorDone := make(chan struct{})
	go func() {
		defer close(executorDone)
		_ = cluster.RunExecutor(ctx, coord.Addr(), cluster.ExecutorOptions{Fleet: true})
	}()
	defer func() { cancel(); <-executorDone }()
	for deadline := time.Now().Add(30 * time.Second); len(coord.Workers()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("executor never registered")
		}
	}
	res, err := cluster.SubmitAndWait(coord.Addr(), cluster.JobSpec{
		ID: "smoke",
		Mixture: &data.MixtureSpec{
			Name: "serve-cluster", Train: 160, Test: 40, Features: 8,
			Clusters: 4, Separation: 7, Noise: 1, PosFrac: []float64{0.5},
			LabelNoise: 0.02, Margin: 1.0, Seed: 42,
		},
		Method: string(core.MethodDisSMO), P: 1, Seed: 1,
	}, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Revoke(coord.Workers()[0].ID); err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, baseURL(srv)+"/metrics")
	for _, want := range []string{
		"# TYPE cluster_worker_joins_total counter",
		"cluster_worker_joins_total 1",
		"cluster_lease_expiries_total 1",
		"cluster_worker_leaves_total 0",
		"cluster_jobs_completed_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /jobs lists the finished job; its namespace serves the job's metrics,
	// the result report, and the merged trace its mesh rank shipped before
	// reporting — the solver's spans, where the job's convergence shows.
	var jobs []struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, baseURL(srv)+"/jobs")), &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != res.ID || jobs[0].State != "done" {
		t.Fatalf("/jobs = %+v, want the finished job %s", jobs, res.ID)
	}
	base := baseURL(srv) + "/jobs/" + res.ID
	httpGet(t, base+"/metrics")
	var rep cluster.JobResult
	if err := json.Unmarshal([]byte(httpGet(t, base+"/report")), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ModelHash != res.ModelHash || rep.ModelHash == "" {
		t.Fatalf("job report hash %q != submitted result hash %q", rep.ModelHash, res.ModelHash)
	}
	x, err := trace.ReadTraceExtra(strings.NewReader(httpGet(t, base+"/trace")))
	if err != nil {
		t.Fatal(err)
	}
	if x.Timebase != trace.TimebaseWall || x.P != 1 || len(x.Segments) != 1 || len(x.Segments[0]) == 0 {
		t.Fatalf("job trace: timebase %q, p=%d, %d rank lanes", x.Timebase, x.P, len(x.Segments))
	}
	// The per-job convergence stream is gone; unknown namespaces 404
	// instead of aliasing another job.
	for _, url := range []string{base + "/events", base + "x/metrics"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", url, resp.StatusCode)
		}
	}
}

// baseURL returns the http:// base URL of the server.
func baseURL(s *telemetry.Server) string { return "http://" + s.Addr() }

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(b)
}

func readFirstSSE(t *testing.T, url string) smo.IterSample {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var s smo.IterSample
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil {
			t.Fatalf("SSE frame %q: %v", line, err)
		}
		return s
	}
	t.Fatalf("no SSE frame before stream end: %v", sc.Err())
	return smo.IterSample{}
}
