package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

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
