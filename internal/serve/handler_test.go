package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"casvm/internal/la"
	"casvm/internal/trace"
)

// deadBatcher is a batcher whose loop is not running and whose done channel
// is already closed: with full set its queue has no room, otherwise an
// enqueue succeeds and the wait finds the batcher shut down.
func deadBatcher(h *Handle, full bool) *Batcher {
	b := &Batcher{
		handle: h,
		reqs:   make(chan *batchReq, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	close(b.done)
	if full {
		b.reqs <- &batchReq{}
	}
	return b
}

// rawPost writes one HTTP/1.1 POST /predict by hand — declared length and
// actual body are the caller's business — half-closes the connection and
// returns the server's response.
func rawPost(t *testing.T, addr string, declared int, body string) *http.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(flushGuard))
	fmt.Fprintf(conn, "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\n\r\n%s", declared, body)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("half-close: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestPredictErrorStatus: the server's own state is 503, the request's
// faults are 4xx, and each failure is counted exactly once.
func TestPredictErrorStatus(t *testing.T) {
	good := `{"queries": [[1,2,3,4]]}`
	cases := []struct {
		name  string
		setup func(*Handle) *Batcher // nil keeps the live batcher
		send  func(t *testing.T, s *Server) *http.Response
		code  int
		want  string
	}{
		{
			name:  "queue full",
			setup: func(h *Handle) *Batcher { return deadBatcher(h, true) },
			code:  http.StatusServiceUnavailable, want: "queue full",
		},
		{
			name:  "batcher shut down",
			setup: func(h *Handle) *Batcher { return deadBatcher(h, false) },
			code:  http.StatusServiceUnavailable, want: "shut down",
		},
		{
			name: "width mismatch",
			send: func(t *testing.T, s *Server) *http.Response {
				return rawPost(t, s.Addr(), len(`{"queries": [[1,2,3]]}`), `{"queries": [[1,2,3]]}`)
			},
			code: http.StatusBadRequest, want: "features",
		},
		{
			name: "body over MaxBody",
			send: func(t *testing.T, s *Server) *http.Response {
				body, err := json.Marshal(PredictRequest{Queries: [][]float64{make([]float64, 200)}})
				if err != nil {
					t.Fatal(err)
				}
				req, err := http.NewRequest(http.MethodPost, s.URL()+"/predict", struct{ io.Reader }{bytes.NewReader(body)})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req) // no declared length: only the capped read can refuse it
				if err != nil {
					t.Fatalf("chunked oversize POST: %v", err)
				}
				t.Cleanup(func() { resp.Body.Close() })
				return resp
			},
			code: http.StatusRequestEntityTooLarge, want: "too large",
		},
		{
			name: "body cut short",
			send: func(t *testing.T, s *Server) *http.Response {
				return rawPost(t, s.Addr(), len(good)+10, good)
			},
			code: http.StatusBadRequest, want: "read body",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mreg := trace.NewRegistry()
			s := startTestServer(t, Config{Metrics: mreg, Limits: Limits{MaxBody: 256}})
			if _, err := s.AddModelSet("default", testSet(3, 4)); err != nil {
				t.Fatalf("AddModelSet: %v", err)
			}
			if c.setup != nil {
				h, _ := s.Registry().Get("default")
				h.Batcher().Close()
				h.batcher.Store(c.setup(h))
			}
			send := c.send
			if send == nil {
				send = func(t *testing.T, s *Server) *http.Response { return rawPost(t, s.Addr(), len(good), good) }
			}
			resp := send(t, s)
			msg, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != c.code || !strings.Contains(string(msg), c.want) {
				t.Fatalf("status %d body %q, want %d mentioning %q", resp.StatusCode, msg, c.code, c.want)
			}
			if got := mreg.Snapshot()["casvm_serve_errors_total"]; got != 1 {
				t.Fatalf("errors_total = %v, want 1", got)
			}
		})
	}
}

// TestOversizeDeclaredLengthCostsNothing: a Content-Length beyond MaxBody is
// refused from the header alone — 413, and no buffer of the declared (or any
// body-like) size is ever allocated.
func TestOversizeDeclaredLengthCostsNothing(t *testing.T) {
	const maxBody = 1 << 20
	s := startTestServer(t, Config{Limits: Limits{MaxBody: maxBody}})
	if _, err := s.AddModelSet("default", testSet(3, 4)); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp := rawPost(t, s.Addr(), 1<<30, "")
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxBody/4 {
		t.Fatalf("refusing a 1 GiB declared length allocated %d bytes", grew)
	}
}

// TestChunkedBodyStillServed: a body with no declared length takes the
// capped ReadAll path and is answered like any other.
func TestChunkedBodyStillServed(t *testing.T) {
	s := startTestServer(t, Config{})
	set := testSet(3, 4)
	if _, err := s.AddModelSet("default", set); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}
	body := `{"queries": [[1,2,3,4],[4,3,2,1]]}`
	req, err := http.NewRequest(http.MethodPost, s.URL()+"/predict", struct{ io.Reader }{strings.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("chunked POST: %v", err)
	}
	defer resp.Body.Close()
	if req.ContentLength != 0 {
		t.Fatalf("fixture: request went out with Content-Length %d, not chunked", req.ContentLength)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, decode %v", resp.StatusCode, err)
	}
	if len(pr.Labels) != 2 {
		t.Fatalf("got %d labels, want 2", len(pr.Labels))
	}
}

// TestRecycledBodyLeavesRequestIntact: handlePredict hands a body buffer to
// the next request once admit returns, so nothing admit queued or returned
// may alias it. Each body here is scribbled over as soon as admit returns:
// the queued queries, their answers and every error must come out as they
// would from an untouched body (and under -race a batcher still reading the
// body would be reported). Two same-length requests over HTTP then share one
// recycled buffer and must both be answered right.
func TestRecycledBodyLeavesRequestIntact(t *testing.T) {
	s := startTestServer(t, Config{})
	set := testSet(3, 4)
	if _, err := s.AddModelSet("default", set); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}
	rng := rand.New(rand.NewSource(48))
	flat := flatQueries(rng, 300, 4) // 1200 values: three whole chunks and a tail
	b64 := EncodeQueriesB64(flat)
	nan := append([]float64(nil), flat...)
	nan[700] = math.NaN()
	scribble := func(body []byte) {
		for i := range body {
			body[i] = 'A'
		}
	}

	body := []byte(`{"queries_b64": "` + b64 + `", "features": 4, "decisions": true}`)
	b, r, _, err := s.admit(body)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	scribble(body)
	for i, v := range r.rows {
		if math.Float64bits(v) != math.Float64bits(flat[i]) {
			t.Fatalf("queued value %d changed with the body: %v, want %v", i, v, flat[i])
		}
	}
	out, err := b.await(r)
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	qm := la.NewDense(300, 4, flat)
	wantLabels, wantDecs := set.PredictAll(qm), set.DecisionAll(qm)
	for i := range wantLabels {
		if out.labels[i] != wantLabels[i] || out.decisions[i] != wantDecs[i] {
			t.Fatalf("query %d: label %v decision %v, want %v %v", i, out.labels[i], out.decisions[i], wantLabels[i], wantDecs[i])
		}
	}

	for _, c := range []struct{ name, body, want string }{
		{"bad JSON", `{"queries": [[1,`, "bad request JSON"},
		{"bad byte", `{"queries_b64": "` + b64[:5000] + "!" + b64[5001:] + `", "features": 4}`, "illegal base64 data at input byte 5000"},
		{"NaN", `{"queries_b64": "` + EncodeQueriesB64(nan) + `", "features": 4}`, "query 175 feature 0 is not finite"},
		{"unknown model", `{"model": "nosuch", "queries": [[1,2,3,4]]}`, `"nosuch"`},
	} {
		body := []byte(c.body)
		_, _, code, err := s.admit(body)
		if err == nil {
			t.Fatalf("%s: admitted", c.name)
		}
		msg := err.Error()
		scribble(body)
		if err.Error() != msg || !strings.Contains(msg, c.want) || code < 400 {
			t.Fatalf("%s: error %q (status %d) became %q with the body, want it to mention %s", c.name, msg, code, err, c.want)
		}
	}
	// A width the model refuses is queued, and fails at its flush.
	body = []byte(`{"queries": [[1,2,3]]}`)
	b, r, _, err = s.admit(body)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	scribble(body)
	if r.width != 3 || r.rows[2] != 3 {
		t.Fatalf("queued a %d-wide request %v after the body changed", r.width, r.rows)
	}
	if _, err := b.await(r); err == nil || !strings.Contains(err.Error(), "features") {
		t.Fatalf("width mismatch: err %v", err)
	}

	for _, q := range [][]float64{flat[:8], flat[8:16]} {
		pr, resp := postPredict(t, s.URL(), PredictRequest{QueriesB64: EncodeQueriesB64(q), FeatureDim: 4})
		if pr == nil {
			t.Fatalf("predict: status %d", resp.StatusCode)
		}
		want := set.PredictAll(la.NewDense(2, 4, q))
		if len(pr.Labels) != 2 || pr.Labels[0] != want[0] || pr.Labels[1] != want[1] {
			t.Fatalf("labels %v, want %v", pr.Labels, want)
		}
	}
}

// TestRecycledQueryBlockLeavesReplyIntact: a request's query block goes back
// to queryBlocks once its await returns, or once admit refuses it. A block
// released while its batch still reads it would be decoded into by the next
// request, and one released twice would be handed to two requests at once.
// Concurrent clients of distinct b64 and JSON bodies must each get exactly
// the offline answers, and so must the round that follows each refusal: an
// unknown model, a full queue, a model without a batcher, a width mismatch
// after a hot reload and a batcher shutdown. Run it under -race too.
func TestRecycledQueryBlockLeavesReplyIntact(t *testing.T) {
	s := startTestServer(t, Config{})
	set, feats := testSet(3, 4), 4
	if _, err := s.AddModelSet("default", set); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}
	h, _ := s.Registry().Get("default")
	client := &http.Client{}
	t.Cleanup(client.CloseIdleConnections)
	post := func(req PredictRequest) (*PredictResponse, int, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, 0, err
		}
		resp, err := client.Post(s.URL()+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		var pr PredictResponse
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&pr)
		}
		return &pr, resp.StatusCode, err
	}
	// body sends n random queries as queries_b64 when n is even, else as a
	// JSON array.
	body := func(rng *rand.Rand, n int) (PredictRequest, []float64) {
		flat := flatQueries(rng, n, feats)
		req := PredictRequest{Decisions: true}
		if n%2 == 0 {
			req.QueriesB64, req.FeatureDim = EncodeQueriesB64(flat), feats
			return req, flat
		}
		for r := 0; r < n; r++ {
			req.Queries = append(req.Queries, flat[r*feats:(r+1)*feats])
		}
		return req, flat
	}
	round := func(after string, seed int64) {
		t.Helper()
		const clients, each = 4, 6
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			go func(rng *rand.Rand) {
				for i := 0; i < each; i++ {
					n := 1 + rng.Intn(48)
					req, flat := body(rng, n)
					pr, code, err := post(req)
					if err != nil || code != http.StatusOK {
						errs <- fmt.Errorf("%d queries: status %d, %v", n, code, err)
						return
					}
					q := la.NewDense(n, feats, flat)
					labels, decs := set.PredictAll(q), set.DecisionAll(q)
					for k := range labels {
						if pr.Labels[k] != labels[k] || math.Float64bits(pr.Decisions[k]) != math.Float64bits(decs[k]) {
							errs <- fmt.Errorf("query %d of %d: label %v decision %v, want %v %v",
								k, n, pr.Labels[k], pr.Decisions[k], labels[k], decs[k])
							return
						}
					}
				}
				errs <- nil
			}(rand.New(rand.NewSource(seed + int64(c))))
		}
		for c := 0; c < clients; c++ {
			if err := <-errs; err != nil {
				t.Fatalf("after %s: %v", after, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(49))
	refuse := func(name string, req PredictRequest, code int) {
		t.Helper()
		if _, got, err := post(req); err != nil || got != code {
			t.Fatalf("%s: status %d, %v; want %d", name, got, err, code)
		}
	}
	round("nothing", 1)

	unknown, _ := body(rng, 32)
	unknown.Model = "nosuch"
	refuse("unknown model", unknown, http.StatusNotFound)
	round("an unknown model", 2)

	live := h.Batcher()
	h.batcher.Store(deadBatcher(h, true))
	req, _ := body(rng, 32)
	refuse("queue full", req, http.StatusServiceUnavailable)
	h.batcher.Store(nil)
	req, _ = body(rng, 32)
	refuse("no batcher", req, http.StatusServiceUnavailable)
	h.batcher.Store(live)
	round("a full queue and a missing batcher", 3)

	old, _ := body(rng, 32)
	set, feats = testSet(5, 6), 6
	if _, err := s.AddModelSet("default", set); err != nil {
		t.Fatalf("reload: %v", err)
	}
	refuse("width mismatch", old, http.StatusBadRequest)
	round("a width mismatch", 4)

	h.Batcher().Close()
	h.batcher.Store(deadBatcher(h, false))
	req, _ = body(rng, 32)
	refuse("batcher shut down", req, http.StatusServiceUnavailable)
	h.batcher.Store(nil)
	s.ensureBatcher(h)
	round("a batcher shutdown", 5)
}
