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
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"casvm/internal/serve"
)

// modelFlags collects repeated -model name=path pairs.
type modelFlags []string

func (m *modelFlags) String() string     { return strings.Join(*m, ",") }
func (m *modelFlags) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "casvm-serve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is done.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("casvm-serve", flag.ContinueOnError)
	var models modelFlags
	var (
		addr     = fs.String("addr", "localhost:8480", "listen address")
		maxBatch = fs.Int("max-batch", 256, "flush a coalesced batch at this many queries")
		maxDelay = fs.Duration("max-delay", 2*time.Millisecond, "longest a pending batch waits for a request that is being decoded to join it; with nothing arriving a batch flushes at once")
	)
	fs.Var(&models, "model", "model to serve, as name=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(models) == 0 {
		return fmt.Errorf("at least one -model name=path is required")
	}

	s, err := serve.Start(*addr, serve.Config{Batch: serve.BatcherConfig{MaxBatch: *maxBatch, MaxDelay: *maxDelay}})
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

	<-ctx.Done()
	fmt.Fprintln(stdout, "shutting down")
	return nil
}
