// Package telemetry is the live observability server behind the `-serve`
// flag of casvm-train and casvm-bench. It exposes, over plain HTTP:
//
//	/metrics       — the trace.Registry in Prometheus text format
//	/healthz       — a liveness document from the caller's health func
//	/debug/pprof/* — the standard Go profiling endpoints
//	/report        — a live JSON snapshot from the caller's report func
//	/events        — an SSE stream of per-iteration solver telemetry
//	                 (smo.TelemetryRing samples as JSON `data:` frames)
//	/jobs          — per-job namespaces from a cluster coordinator, each
//	                 serving /jobs/<id>/{metrics,report,events,trace} with
//	                 the same formats as the top-level endpoints (trace is
//	                 the job's merged Chrome trace file, when available)
//
// plus any caller-mounted SSE streams (Config.Streams), e.g. the fleet
// straggler feed of casvm-cluster at /fleet/events.
//
// The server only reads from concurrency-safe sinks (registry atomics,
// the telemetry ring's mutex), so it can run while training is in flight
// without perturbing it.
package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"casvm/internal/smo"
	"casvm/internal/trace"
)

// Config wires the server to a run's observability sinks; any field may be
// nil (its endpoint then serves an empty document).
type Config struct {
	// Metrics backs /metrics.
	Metrics *trace.Registry
	// Report, when non-nil, is invoked per /report request and its result
	// rendered as indented JSON — typically a closure building a live
	// trace.Report (or any snapshot struct) from the run so far.
	Report func() any
	// Ring backs the /events SSE stream.
	Ring *smo.TelemetryRing
	// PollInterval is the SSE poll cadence (default 200ms).
	PollInterval time.Duration
	// Jobs, when non-nil, is polled per request for the per-job telemetry
	// namespaces of a cluster coordinator: /jobs lists them, and
	// /jobs/<id>/metrics, /jobs/<id>/report and /jobs/<id>/events serve
	// one job's private registry, result snapshot and convergence stream
	// with the same formats as the top-level endpoints.
	Jobs func() []JobNamespace
	// Health, when non-nil, is invoked per /healthz request and rendered
	// as JSON (nil serves {"status":"ok"}). The endpoint always answers
	// 200 — the document carries the detail (uptime, worker counts).
	Health func() any
	// Streams mounts additional cursor-paged SSE feeds, keyed by path
	// (e.g. "fleet/events" serves at /fleet/events). Each request starts
	// from cursor 0 and follows the source's returned cursors.
	Streams map[string]StreamSource
}

// StreamSource is a cursor-paged event feed for an SSE endpoint: it
// returns the items at cursors ≥ cursor plus the next cursor to poll
// from, never blocking.
type StreamSource func(cursor uint64) ([]any, uint64)

// JobNamespace is one job's slice of the telemetry surface. Any sink may
// be nil; its endpoint then serves an empty document.
type JobNamespace struct {
	ID      string // path segment under /jobs/
	State   string // lifecycle state shown in the /jobs listing
	Metrics *trace.Registry
	Report  func() any
	Ring    *smo.TelemetryRing
	// Trace, when non-nil, writes the job's merged Chrome trace file;
	// served at /jobs/<id>/trace (404 when nil — e.g. no fleet telemetry
	// was shipped for the job).
	Trace func(w io.Writer) error
}

// Server is a running telemetry endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Start listens on addr (e.g. "localhost:9100"; ":0" picks a free port)
// and serves the telemetry endpoints until Close.
func Start(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = cfg.Metrics.WriteProm(w) // nil-safe: writes nothing
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any
		if cfg.Report != nil {
			v = cfg.Report()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		serveSSE(w, r, cfg.Ring, cfg.PollInterval)
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, _ *http.Request) {
		type entry struct {
			ID    string `json:"id"`
			State string `json:"state,omitempty"`
		}
		list := []entry{}
		if cfg.Jobs != nil {
			for _, j := range cfg.Jobs() {
				list = append(list, entry{ID: j.ID, State: j.State})
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(list)
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		serveJob(w, r, cfg)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		v := any(map[string]string{"status": "ok"})
		if cfg.Health != nil {
			v = cfg.Health()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	for name, src := range cfg.Streams {
		src := src
		mux.HandleFunc("/"+name, func(w http.ResponseWriter, r *http.Request) {
			var cursor uint64
			StreamSSE(w, r, cfg.PollInterval, func() []any {
				var items []any
				items, cursor = src(cursor)
				return items
			})
		})
	}
	// net/http/pprof self-registers only on DefaultServeMux; wire the
	// handlers explicitly so this mux stays self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: mux},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// serveJob routes /jobs/<id>/{metrics,report,events} onto one job's
// private namespace.
func serveJob(w http.ResponseWriter, r *http.Request, cfg Config) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, endpoint, ok := strings.Cut(rest, "/")
	if !ok || id == "" {
		http.NotFound(w, r)
		return
	}
	var job JobNamespace
	found := false
	if cfg.Jobs != nil {
		for _, j := range cfg.Jobs() {
			if j.ID == id {
				job, found = j, true
				break
			}
		}
	}
	if !found {
		http.NotFound(w, r)
		return
	}
	switch endpoint {
	case "metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = job.Metrics.WriteProm(w) // nil-safe: writes nothing
	case "report":
		w.Header().Set("Content-Type", "application/json")
		var v any
		if job.Report != nil {
			v = job.Report()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	case "events":
		serveSSE(w, r, job.Ring, cfg.PollInterval)
	case "trace":
		if job.Trace == nil {
			http.NotFound(w, r)
			return
		}
		// Buffer so a mid-trace merge error becomes a clean 500 instead
		// of a truncated download.
		var buf bytes.Buffer
		if err := job.Trace(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.trace", id))
		_, _ = buf.WriteTo(w)
	default:
		http.NotFound(w, r)
	}
}

// serveSSE streams telemetry-ring samples as server-sent events: one
// `data:` line per IterSample, JSON-encoded, polled at the configured
// cadence until the client disconnects or the server closes.
func serveSSE(w http.ResponseWriter, r *http.Request, ring *smo.TelemetryRing, interval time.Duration) {
	var cursor uint64
	StreamSSE(w, r, interval, func() []any {
		var samples []smo.IterSample
		samples, cursor = ring.Since(cursor) // nil-safe: always empty
		out := make([]any, len(samples))
		for i, s := range samples {
			out[i] = s
		}
		return out
	})
}

// StreamSSE writes a server-sent-event response: next is polled at the
// given cadence and every returned item is JSON-encoded as one `data:`
// frame, until the client disconnects or a write fails. Other servers
// (casvm-serve's live QPS stream) reuse it so every SSE surface frames
// events identically.
func StreamSSE(w http.ResponseWriter, r *http.Request, interval time.Duration, next func() []any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		events := next()
		for _, e := range events {
			b, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
		}
		if len(events) > 0 {
			fl.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and waits for the serve loop to exit. In-flight
// SSE streams end when their clients notice the closed connection.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
