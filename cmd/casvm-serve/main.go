// casvm-serve is the production inference server: it loads one or more
// saved model sets and answers POST /predict over HTTP/JSON, coalescing
// concurrent requests into blocked tile evaluations. The surface:
//
//	POST /predict               — {"queries": [[...]]} or binary queries_b64
//	GET  /healthz               — readiness (200 once a model is loaded)
//	GET  /models                — loaded models with provenance + metadata
//	POST /models/<name>/reload  — atomic hot-reload from disk
//	GET  /metrics               — Prometheus text exposition
//	GET  /events                — SSE stream of live QPS and tail latency
//
// Usage:
//
//	casvm-serve -addr :8480 -model default=small.model [-model extra=other.model]
//	casvm-serve -selfbench                # sustained-load benchmark, JSON to stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"casvm"
	"casvm/internal/serve"
)

// modelFlags collects repeated -model name=path pairs.
type modelFlags []string

func (m *modelFlags) String() string     { return strings.Join(*m, ",") }
func (m *modelFlags) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "casvm-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("casvm-serve", flag.ContinueOnError)
	var models modelFlags
	var (
		addr      = fs.String("addr", "localhost:8480", "listen address")
		maxBatch  = fs.Int("max-batch", 256, "flush a coalesced batch at this many queries")
		maxDelay  = fs.Duration("max-delay", 2*time.Millisecond, "longest a pending batch waits for a request that is being decoded to join it; with nothing arriving a batch flushes at once")
		selfbench = fs.Bool("selfbench", false, "train + compress the face-like dataset, serve it in-process, and run the sustained-load benchmark")
		benchDur  = fs.Duration("selfbench-duration", 5*time.Second, "selfbench load duration")
	)
	fs.Var(&models, "model", "model to serve, as name=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	batch := serve.BatcherConfig{MaxBatch: *maxBatch, MaxDelay: *maxDelay}
	if *selfbench {
		return runSelfbench(stdout, batch, *benchDur)
	}
	if len(models) == 0 {
		return fmt.Errorf("at least one -model name=path is required (or -selfbench)")
	}

	s, err := serve.Start(*addr, serve.Config{Batch: batch})
	if err != nil {
		return err
	}
	defer s.Close()
	for _, spec := range models {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -model %q, want name=path", spec)
		}
		snap, err := s.AddModel(name, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "serving %s from %s (%d partitions, %d SVs, model hash %s)\n",
			name, path, snap.Set.P(), snap.Set.NSV(), snap.ModelHash)
	}
	fmt.Fprintf(stdout, "listening on %s\n", s.URL())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(stdout, "shutting down")
	return nil
}

// runSelfbench measures sustained serving load without a test binary: train
// the face-like dataset, compress it with the golden budget, serve it on a
// loopback port, and drive the shared load generator.
func runSelfbench(stdout io.Writer, batch serve.BatcherConfig, dur time.Duration) error {
	fmt.Fprintln(stdout, "selfbench: training face-like dataset...")
	ds, entry, err := casvm.LoadDataset("face", 1.0)
	if err != nil {
		return err
	}
	p := casvm.DefaultParams(casvm.MethodRACA, 8)
	p.Kernel = casvm.RBF(entry.GammaOrDefault())
	out, err := casvm.Train(ds.X, ds.Y, p)
	if err != nil {
		return err
	}
	small, st, err := casvm.CompressModelSet(out.Set, casvm.CompressOptions{
		Budget: 32, PruneFrac: 0.01, Seed: 7,
	})
	if err != nil {
		return err
	}
	fullAcc, compAcc := casvm.AnnotateCompression(small, out.Set, ds.TestX, ds.TestY)
	fmt.Fprintf(stdout, "selfbench: compressed %d → %d SVs, accuracy %.4f → %.4f\n",
		st.SVBefore, st.SVAfter, fullAcc, compAcc)

	s, err := serve.Start("localhost:0", serve.Config{Batch: batch})
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.AddModelSet("default", small); err != nil {
		return err
	}
	// Warm connections and the batcher outside the measured window.
	if _, err := serve.RunLoad(serve.LoadOptions{
		URL: s.URL(), Features: small.Centers.Features(), Requests: 64, Binary: true, Seed: 1,
	}); err != nil {
		return err
	}
	res, err := serve.RunLoad(serve.LoadOptions{
		URL:               s.URL(),
		Features:          small.Centers.Features(),
		QueriesPerRequest: 256,
		Binary:            true,
		Duration:          dur,
		Seed:              2,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "selfbench: %.0f preds/s sustained over %v (p50 %v, p99 %v, %d errors)\n",
		res.PredsPerSec, res.Elapsed.Round(time.Millisecond), res.P50.Round(time.Microsecond),
		res.P99.Round(time.Microsecond), res.Errors)
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
