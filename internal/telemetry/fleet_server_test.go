package telemetry_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"casvm/internal/telemetry"
)

// TestHealthz pins the liveness endpoint: the default document without a
// health func, the caller's document with one, and a 200 either way.
func TestHealthz(t *testing.T) {
	srv, err := telemetry.Start("127.0.0.1:0", telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var doc map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, baseURL(srv)+"/healthz")), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "ok" {
		t.Fatalf("default health doc: %v", doc)
	}

	srv2, err := telemetry.Start("127.0.0.1:0", telemetry.Config{
		Health: func() any {
			return map[string]any{"status": "ok", "uptime_sec": 12.5, "workers": 3}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := json.Unmarshal([]byte(httpGet(t, baseURL(srv2)+"/healthz")), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["workers"] != float64(3) || doc["uptime_sec"] != 12.5 {
		t.Fatalf("custom health doc: %v", doc)
	}
}

// TestCustomStream mounts a cursor-paged source at /fleet/events and reads
// its items back over SSE.
func TestCustomStream(t *testing.T) {
	type ev struct {
		Rank int `json:"rank"`
	}
	events := []ev{{Rank: 1}, {Rank: 2}, {Rank: 3}}
	srv, err := telemetry.Start("127.0.0.1:0", telemetry.Config{
		PollInterval: 10 * time.Millisecond,
		Streams: map[string]telemetry.StreamSource{
			"fleet/events": func(cursor uint64) ([]any, uint64) {
				if cursor >= uint64(len(events)) {
					return nil, cursor
				}
				out := make([]any, 0, len(events))
				for _, e := range events[cursor:] {
					out = append(out, e)
				}
				return out, uint64(len(events))
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(baseURL(srv) + "/fleet/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var got []int
	for sc.Scan() && len(got) < 3 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e ev
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatal(err)
		}
		got = append(got, e.Rank)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("stream items: %v", got)
	}
}

// TestJobTraceEndpoint pins /jobs/<id>/trace: the writer's bytes are
// served verbatim on success, a merge error becomes a clean 500, and a
// job without a trace func 404s.
func TestJobTraceEndpoint(t *testing.T) {
	srv, err := telemetry.Start("127.0.0.1:0", telemetry.Config{
		Jobs: func() []telemetry.JobNamespace {
			return []telemetry.JobNamespace{
				{ID: "ok-job", Trace: func(w io.Writer) error {
					_, err := w.Write([]byte(`{"traceEvents":[]}`))
					return err
				}},
				{ID: "bad-job", Trace: func(io.Writer) error {
					return fmt.Errorf("no spans shipped")
				}},
				{ID: "plain-job"},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if body := httpGet(t, baseURL(srv)+"/jobs/ok-job/trace"); body != `{"traceEvents":[]}` {
		t.Fatalf("trace body %q", body)
	}
	resp, err := http.Get(baseURL(srv) + "/jobs/bad-job/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("merge error status %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(baseURL(srv) + "/jobs/plain-job/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace-less job status %d, want 404", resp.StatusCode)
	}
}

// TestSSEClientDisconnectNoLeak pins the stream shutdown path: a client
// that walks away must end its StreamSSE goroutine — the poll loop selects
// on the request context, so a disconnect may not surface as a write
// error for many idle ticks otherwise.
func TestSSEClientDisconnectNoLeak(t *testing.T) {
	srv, err := telemetry.Start("127.0.0.1:0", telemetry.Config{
		// A long poll interval so only the context — not a failed write
		// on the next tick — can end the handler promptly.
		PollInterval: time.Hour,
		Streams: map[string]telemetry.StreamSource{
			"quiet": func(cursor uint64) ([]any, uint64) { return nil, cursor },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before := runtime.NumGoroutine()
	const clients = 4
	for i := 0; i < clients; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", baseURL(srv)+"/quiet", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		// Client walks away mid-stream.
		cancel()
		resp.Body.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after SSE disconnects: %d before, %d after", before, now)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
