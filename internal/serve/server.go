// Package serve is the production inference plane: an HTTP/JSON prediction
// server over trained model sets. Concurrent requests coalesce through a
// per-model micro-batcher into blocked PredictAll tile evaluations, models
// hot-reload by atomic snapshot swap without dropping in-flight batches,
// and the whole surface is instrumented through trace.Registry (Prometheus
// text on /metrics, live QPS over SSE on /events).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"casvm/internal/model"
	"casvm/internal/telemetry"
	"casvm/internal/trace"
)

// Config wires the server's budgets and observability.
type Config struct {
	// Batch bounds the micro-batching window (zero fields use defaults).
	Batch BatcherConfig
	// Limits bounds request decoding (zero fields use defaults).
	Limits Limits
	// Metrics receives the casvm_serve_* metric families. A fresh registry
	// is created when nil, so /metrics always serves.
	Metrics *trace.Registry
	// PollInterval is the /events SSE sampling cadence (default 1s).
	PollInterval time.Duration
}

// serverMetrics are the request-path handles (all lock-free to update).
type serverMetrics struct {
	requests *trace.Counter
	queries  *trace.Counter
	errors   *trace.Counter
	reloads  *trace.Counter
	latency  *trace.Histogram
}

// Server is a running inference endpoint.
type Server struct {
	cfg Config
	reg *Registry
	ln  net.Listener
	srv *http.Server

	m  serverMetrics
	bm batcherMetrics

	// arriving counts /predict requests between body read and enqueue; every
	// batcher consults it before deciding a batch has no more company coming.
	arriving arrivals

	mu   sync.Mutex // guards batcher attach/close
	done chan struct{}
}

// Start listens on addr (":0" picks a free port) and serves the inference
// endpoints until Close. Models are attached afterwards with AddModel /
// AddModelSet; until one is loaded, /predict answers 503 and /healthz
// reports not ready.
func Start(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = trace.NewRegistry()
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	cfg.Limits = cfg.Limits.Defaulted()
	cfg.Batch = cfg.Batch.Defaulted()

	reg := cfg.Metrics
	s := &Server{
		cfg:  cfg,
		reg:  NewRegistry(),
		ln:   ln,
		done: make(chan struct{}),
		m: serverMetrics{
			requests: reg.Counter("casvm_serve_requests_total", "prediction requests accepted"),
			queries:  reg.Counter("casvm_serve_queries_total", "individual query vectors predicted"),
			errors:   reg.Counter("casvm_serve_errors_total", "requests rejected or failed"),
			reloads:  reg.Counter("casvm_serve_reloads_total", "model hot-reloads applied"),
			latency: reg.Histogram("casvm_serve_latency_seconds",
				"request latency from decode to response write", trace.ExpBuckets(1e-5, 2, 22)),
		},
		bm: batcherMetrics{
			batches:    reg.Counter("casvm_serve_batches_total", "coalesced tile batches evaluated"),
			flushFull:  reg.Counter("casvm_serve_batch_flush_full_total", "batches flushed because pending queries reached max-batch"),
			flushTimer: reg.Counter("casvm_serve_batch_flush_timer_total", "batches flushed because an announced arrival had not enqueued within max-delay"),
			flushIdle:  reg.Counter("casvm_serve_batch_flush_idle_total", "batches flushed because the queue was empty and nothing was arriving"),
			batchSize: reg.Histogram("casvm_serve_batch_size",
				"queries per coalesced batch", trace.ExpBuckets(1, 2, 13)),
			queueDepth: reg.Gauge("casvm_serve_queue_depth", "queries pending in the batching window"),
		},
	}
	s.reg.reloads = s.m.reloads.Inc

	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/models", s.handleModels)
	mux.HandleFunc("/models/", s.handleModelAction)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = s.cfg.Metrics.WriteProm(w)
	})
	mux.HandleFunc("/events", s.handleEvents)

	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the http:// base URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Registry exposes the model registry (tests and bench/serve.go drive it).
func (s *Server) Registry() *Registry { return s.reg }

// Close stops the listener, waits for the serve loop, and shuts down every
// batcher (flushing their pending batches so no request hangs).
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.reg.Handles() {
		if b := h.Batcher(); b != nil {
			b.Close()
		}
	}
	return err
}

// ensureBatcher attaches the coalescing loop to a freshly registered handle.
func (s *Server) ensureBatcher(h *Handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.Batcher() == nil {
		h.batcher.Store(newBatcher(h, s.cfg.Batch, s.bm, &s.arriving))
	}
}

// AddModel loads a model file and serves it under name (hot-swapping any
// existing model of that name).
func (s *Server) AddModel(name, path string) (*Snapshot, error) {
	h, snap, err := s.reg.AddFile(name, path)
	if err != nil {
		return nil, err
	}
	s.ensureBatcher(h)
	return snap, nil
}

// AddModelSet serves an in-memory model set under name.
func (s *Server) AddModelSet(name string, set *model.Set) (*Snapshot, error) {
	h, snap, err := s.reg.AddSet(name, set)
	if err != nil {
		return nil, err
	}
	s.ensureBatcher(h)
	return snap, nil
}

// httpError counts and writes a JSON error response.
func (s *Server) httpError(w http.ResponseWriter, code int, err error) {
	s.m.errors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// readBody reads a request body of at most max bytes. A declared length
// is checked before a byte is read and sizes the buffer exactly, taken from
// bodies when a recycled one is large enough; an undeclared one (chunked)
// falls back to a capped ReadAll.
func readBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	if r.ContentLength > max {
		return nil, &http.MaxBytesError{Limit: max}
	}
	if r.ContentLength < 0 {
		return io.ReadAll(http.MaxBytesReader(w, r.Body, max))
	}
	var body []byte
	if p, _ := bodies.Get().(*[]byte); p != nil && int64(cap(*p)) >= r.ContentLength {
		body = (*p)[:r.ContentLength]
	} else {
		body = make([]byte, r.ContentLength)
	}
	_, err := io.ReadFull(r.Body, body)
	return body, err
}

// bodies recycles /predict body buffers. A body is dead once admit returns:
// nothing DecodePredictRequest returns aliases it (Model is a copied string,
// the queries are decoded into a query block of their own, errors are
// formatted), so the next request reads into it instead of zeroing a fresh
// allocation.
var bodies sync.Pool // of *[]byte

// admit takes a request from body bytes to its model's batcher queue, or
// rejects it with an HTTP status. It is counted as arriving for exactly that
// stretch — announced before the decode, retired after the enqueue or on any
// rejection — so a pending batch waits for it and for nothing slower: the
// body upload is over before the count starts. A request refused after its
// decode gives its query block back here; an admitted one's block travels in
// r to handlePredict.
func (s *Server) admit(body []byte) (b *Batcher, r *batchReq, code int, err error) {
	s.arriving.announce()
	defer s.arriving.retire()
	req, err := decodeRequest(body, s.cfg.Limits, true)
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	defer func() {
		if err != nil {
			releaseBlock(req.flat, req.block)
		}
	}()
	h, err := s.reg.Resolve(req.Model)
	if err != nil {
		return nil, nil, http.StatusNotFound, err
	}
	if b = h.Batcher(); b == nil {
		return nil, nil, http.StatusServiceUnavailable, fmt.Errorf("serve: model %q not ready", h.Name)
	}
	r = &batchReq{rows: req.flatten(), block: req.block, nq: req.NumQueries(), width: req.Features(), decisions: req.Decisions}
	if err = b.submit(r); err != nil {
		return nil, nil, predictStatus(err), err
	}
	return b, r, 0, nil
}

// predictStatus maps a batcher error to its HTTP status: the server's own
// state (queue full, shut down) is 503, anything else is the request's fault.
func predictStatus(err error) int {
	var unavailable unavailableError
	if errors.As(err, &unavailable) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// handlePredict is the hot path: read → decode → resolve → enqueue → reply.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: POST required"))
		return
	}
	start := time.Now()
	body, err := readBody(w, r, s.cfg.Limits.MaxBody)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.httpError(w, code, fmt.Errorf("serve: read body: %w", err))
		return
	}
	b, req, code, err := s.admit(body)
	bodies.Put(&body)
	if err != nil {
		s.httpError(w, code, err)
		return
	}
	out, err := b.await(req)
	// The one release point of an admitted request's query block: the
	// flush has evaluated the rows, or the loop has stopped without them.
	releaseBlock(req.rows, req.block)
	if err != nil {
		s.httpError(w, predictStatus(err), err)
		return
	}
	s.m.requests.Inc()
	s.m.queries.Add(int64(req.nq))
	resp := PredictResponse{
		Model:      b.handle.Name,
		Generation: out.generation,
		Labels:     out.labels,
		Decisions:  out.decisions,
		BatchSize:  out.batchSize,
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
	s.m.latency.Observe(time.Since(start).Seconds())
}

// handleHealthz reports readiness: 200 once at least one model serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	names := s.reg.Names()
	w.Header().Set("Content-Type", "application/json")
	if len(names) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "no models loaded"})
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "models": names})
}

// modelInfo is one /models listing entry.
type modelInfo struct {
	Name       string            `json:"name"`
	Generation uint64            `json:"generation"`
	Path       string            `json:"path,omitempty"`
	ModelHash  string            `json:"model_hash"`
	LoadedAt   time.Time         `json:"loaded_at"`
	Partitions int               `json:"partitions"`
	Features   int               `json:"features"`
	NSV        int               `json:"nsv"`
	Meta       map[string]string `json:"meta,omitempty"`
}

func snapshotInfo(name string, snap *Snapshot) modelInfo {
	return modelInfo{
		Name:       name,
		Generation: snap.Generation,
		Path:       snap.Path,
		ModelHash:  snap.ModelHash,
		LoadedAt:   snap.LoadedAt,
		Partitions: snap.Set.P(),
		Features:   snap.Set.Centers.Features(),
		NSV:        snap.Set.NSV(),
		Meta:       snap.Set.Meta,
	}
}

// handleModels lists every loaded model with its provenance.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	list := []modelInfo{}
	for _, h := range s.reg.Handles() {
		list = append(list, snapshotInfo(h.Name, h.Snapshot()))
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(list)
}

// handleModelAction routes POST /models/<name>/reload: re-read the model
// from disk (or from an explicit {"path": ...} body) and atomically swap.
func (s *Server) handleModelAction(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/models/")
	name, action, ok := strings.Cut(rest, "/")
	if !ok || name == "" || action != "reload" {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: POST required"))
		return
	}
	h, found := s.reg.Get(name)
	if !found {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("serve: unknown model %q", name))
		return
	}
	var body struct {
		Path string `json:"path"`
	}
	if b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)); err == nil && len(b) > 0 {
		if err := json.Unmarshal(b, &body); err != nil {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad reload body: %w", err))
			return
		}
	}
	snap, err := s.reg.Reload(h, body.Path)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snapshotInfo(h.Name, snap))
}

// qpsSample is one /events SSE frame: instantaneous load computed from
// counter deltas over the poll interval plus latency quantiles.
type qpsSample struct {
	Time          time.Time `json:"time"`
	RequestsTotal int64     `json:"requests_total"`
	QueriesTotal  int64     `json:"queries_total"`
	RequestsPerS  float64   `json:"requests_per_s"`
	QueriesPerS   float64   `json:"queries_per_s"`
	P50LatencyMS  float64   `json:"p50_latency_ms"`
	P99LatencyMS  float64   `json:"p99_latency_ms"`
	QueueDepth    float64   `json:"queue_depth"`
	Errors        int64     `json:"errors_total"`
}

// handleEvents streams live QPS over SSE: every tick emits one qpsSample
// even when idle, so dashboards see flat-lines rather than silence.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var prevReq, prevQ int64
	var prevT time.Time
	first := true
	telemetry.StreamSSE(w, r, s.cfg.PollInterval, func() []any {
		now := time.Now()
		req, q := s.m.requests.Value(), s.m.queries.Value()
		sample := qpsSample{
			Time:          now,
			RequestsTotal: req,
			QueriesTotal:  q,
			P50LatencyMS:  s.m.latency.Quantile(0.50) * 1e3,
			P99LatencyMS:  s.m.latency.Quantile(0.99) * 1e3,
			QueueDepth:    s.bm.queueDepth.Value(),
			Errors:        s.m.errors.Value(),
		}
		if !first {
			dt := now.Sub(prevT).Seconds()
			if dt > 0 {
				sample.RequestsPerS = float64(req-prevReq) / dt
				sample.QueriesPerS = float64(q-prevQ) / dt
			}
		}
		first = false
		prevReq, prevQ, prevT = req, q, now
		return []any{sample}
	})
}
