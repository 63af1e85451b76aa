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

	"casvm/internal/trace"
)

// The flush policy, on the bare batcher: the test plays the HTTP handler's
// part by announcing and retiring on the arrivals count itself. Every case
// that must not wait runs with MaxDelay at an hour, so a wrong policy hangs
// into the guard below instead of passing slowly.

const flushGuard = 10 * time.Second

// awaitOrFail is Batcher.await with the guard.
func awaitOrFail(t *testing.T, b *Batcher, r *batchReq) batchOut {
	t.Helper()
	type res struct {
		out batchOut
		err error
	}
	ch := make(chan res, 1)
	go func() {
		out, err := b.await(r)
		ch <- res{out, err}
	}()
	select {
	case got := <-ch:
		if got.err != nil {
			t.Fatalf("await: %v", got.err)
		}
		return got.out
	case <-time.After(flushGuard):
		t.Fatal("request still pending: the batch was not flushed")
		return batchOut{}
	}
}

func mustEnqueue(t *testing.T, b *Batcher, rng *rand.Rand, nq int) *batchReq {
	t.Helper()
	r, err := b.enqueue(flatQueries(rng, nq, 4), nq, 4, false)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	return r
}

// TestBatcherLoneRequestFlushesAtOnce: nothing queued, nothing arriving —
// a direct Predict caller announces nothing — so the request pays for its
// own evaluation and no part of MaxDelay.
func TestBatcherLoneRequestFlushesAtOnce(t *testing.T) {
	b, mreg, _ := arrivalsHarness(t, testSet(3, 4), BatcherConfig{MaxBatch: 1 << 20, MaxDelay: time.Hour})
	rng := rand.New(rand.NewSource(11))
	out := awaitOrFail(t, b, mustEnqueue(t, b, rng, 3))
	if len(out.labels) != 3 || out.batchSize != 3 {
		t.Fatalf("got %d labels in a batch of %d, want 3, 3", len(out.labels), out.batchSize)
	}
	snap := mreg.Snapshot()
	if snap["flush_idle"] != 1 || snap["flush_timer"] != 0 || snap["flush_full"] != 0 {
		t.Fatalf("flush counters: idle=%v timer=%v full=%v, want 1, 0, 0",
			snap["flush_idle"], snap["flush_timer"], snap["flush_full"])
	}
}

// TestBatcherWaitsForAnnouncedArrivals: with k requests announced the batch
// stays open while they enqueue one by one, and leaves as a single batch of
// all k once the last has retired.
func TestBatcherWaitsForAnnouncedArrivals(t *testing.T) {
	const k = 5
	b, mreg, arr := arrivalsHarness(t, testSet(3, 4), BatcherConfig{MaxBatch: 1 << 20, MaxDelay: time.Hour})
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < k; i++ {
		arr.announce()
	}
	reqs := make([]*batchReq, k)
	for i := range reqs {
		if got := mreg.Snapshot()["batches"]; got != 0 {
			t.Fatalf("%v batches flushed with %d of %d announced requests still to come", got, k-i, k)
		}
		reqs[i] = mustEnqueue(t, b, rng, 2)
		arr.retire()
	}
	for _, r := range reqs {
		if out := awaitOrFail(t, b, r); out.batchSize != 2*k {
			t.Fatalf("request rode a batch of %d queries, want all %d", out.batchSize, 2*k)
		}
	}
	snap := mreg.Snapshot()
	if snap["batches"] != 1 || snap["flush_idle"] != 1 {
		t.Fatalf("batches=%v idle=%v, want exactly one idle flush", snap["batches"], snap["flush_idle"])
	}
}

// TestBatcherRejectedArrivalReleasesBatch: an announced request that is
// refused (it retires without ever enqueueing) frees the batch that was
// waiting for it — by the retire, not by the hour-long MaxDelay.
func TestBatcherRejectedArrivalReleasesBatch(t *testing.T) {
	b, mreg, arr := arrivalsHarness(t, testSet(3, 4), BatcherConfig{MaxBatch: 1 << 20, MaxDelay: time.Hour})
	rng := rand.New(rand.NewSource(13))
	arr.announce()
	r := mustEnqueue(t, b, rng, 2)
	if got := mreg.Snapshot()["batches"]; got != 0 {
		t.Fatalf("%v batches flushed while an announced request was outstanding", got)
	}
	arr.retire() // rejected: bad JSON, a NaN, too many queries
	awaitOrFail(t, b, r)
	snap := mreg.Snapshot()
	if snap["flush_idle"] != 1 || snap["flush_timer"] != 0 {
		t.Fatalf("flush counters: idle=%v timer=%v, want 1, 0", snap["flush_idle"], snap["flush_timer"])
	}
}

// TestAdmitRetiresOnEveryPath: whatever admit decides about a body, the
// request is no longer counted as arriving when it returns — each rejection
// the decoder and the registry can produce, and the accepted request too.
func TestAdmitRetiresOnEveryPath(t *testing.T) {
	s := startTestServer(t, Config{
		Batch:  BatcherConfig{MaxDelay: time.Hour},
		Limits: Limits{MaxQueries: 2},
	})
	if _, err := s.AddModelSet("default", testSet(3, 4)); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}
	cases := []struct {
		name, body string
		code       int
	}{
		{"bad JSON", `{"queries": [[1,`, http.StatusBadRequest},
		{"not finite", `{"queries_b64": "` + EncodeQueriesB64([]float64{1, 2, 3, math.NaN()}) + `", "features": 4}`, http.StatusBadRequest},
		{"over MaxQueries", `{"queries": [[1,2,3,4],[1,2,3,4],[1,2,3,4]]}`, http.StatusBadRequest},
		{"null feature", `{"queries": [[1,null,3,4]]}`, http.StatusBadRequest},
		{"unknown model", `{"model": "nope", "queries": [[1,2,3,4]]}`, http.StatusNotFound},
		{"accepted", `{"queries": [[1,2,3,4]]}`, 0},
	}
	for _, c := range cases {
		b, r, code, err := s.admit([]byte(c.body))
		if code != c.code || (err == nil) != (c.code == 0) {
			t.Errorf("%s: admit → status %d, err %v; want status %d", c.name, code, err, c.code)
		}
		if s.arriving.pending() != nil {
			t.Fatalf("%s: still counted as arriving after admit returned", c.name)
		}
		if err == nil {
			awaitOrFail(t, b, r)
		}
	}
}

// TestBatcherCloseDrains: Close flushes what is pending — even a batch held
// open for an announced arrival — so no caller is left blocked.
func TestBatcherCloseDrains(t *testing.T) {
	reg := NewRegistry()
	h, _, err := reg.AddSet("m", testSet(3, 4))
	if err != nil {
		t.Fatalf("AddSet: %v", err)
	}
	arr := &arrivals{}
	b := newBatcher(h, BatcherConfig{MaxBatch: 1 << 20, MaxDelay: time.Hour}, batcherMetrics{}, arr)
	rng := rand.New(rand.NewSource(14))
	arr.announce() // never retires: only Close can release the batch
	r1, r2 := mustEnqueue(t, b, rng, 2), mustEnqueue(t, b, rng, 3)
	b.Close()
	for i, r := range []*batchReq{r1, r2} {
		select {
		case out := <-r.done:
			if out.err != nil || len(out.labels) != r.nq {
				t.Fatalf("request %d after Close: %d labels, err %v", i, len(out.labels), out.err)
			}
		default:
			t.Fatalf("request %d was not answered by Close's drain", i)
		}
	}
	if _, err := b.Predict(flatQueries(rng, 1, 4), 1, 4, false); err == nil {
		t.Fatal("Predict on a closed batcher should fail")
	}
}

// TestFlushReasonsAddUp drives one flush by each rule through a real server
// and checks that the three reason counters account for every batch.
func TestFlushReasonsAddUp(t *testing.T) {
	mreg := trace.NewRegistry()
	s := startTestServer(t, Config{
		Metrics: mreg,
		Batch:   BatcherConfig{MaxBatch: 8, MaxDelay: 5 * time.Millisecond},
	})
	if _, err := s.AddModelSet("default", testSet(3, 4)); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}
	rng := rand.New(rand.NewSource(15))
	post := func(n int) {
		t.Helper()
		if pr, resp := postPredict(t, s.URL(), PredictRequest{Queries: queries(rng, n, 4)}); pr == nil {
			t.Fatalf("predict %d queries: status %d", n, resp.StatusCode)
		}
	}
	post(1) // alone: idle
	post(8) // fills MaxBatch: full
	s.arriving.announce()
	post(1) // held for an arrival that never comes: timer
	s.arriving.retire()

	snap := mreg.Snapshot()
	idle, full, timer := snap["casvm_serve_batch_flush_idle_total"],
		snap["casvm_serve_batch_flush_full_total"], snap["casvm_serve_batch_flush_timer_total"]
	if idle != 1 || full != 1 || timer != 1 {
		t.Errorf("idle=%v full=%v timer=%v, want one of each", idle, full, timer)
	}
	if batches := snap["casvm_serve_batches_total"]; idle+full+timer != batches {
		t.Errorf("reasons sum to %v, batches_total is %v", idle+full+timer, batches)
	}
}

// TestSlowUploadHoldsNobody: a request counts as arriving only once its
// body is in memory. While one client is still uploading — the server has
// answered its Expect: 100-continue, so the handler is inside the body read —
// another client's request is served without waiting for it, with MaxDelay
// at an hour.
func TestSlowUploadHoldsNobody(t *testing.T) {
	mreg := trace.NewRegistry()
	s := startTestServer(t, Config{Metrics: mreg, Batch: BatcherConfig{MaxDelay: time.Hour}})
	if _, err := s.AddModelSet("default", testSet(3, 4)); err != nil {
		t.Fatalf("AddModelSet: %v", err)
	}
	body, err := json.Marshal(PredictRequest{Queries: [][]float64{{1, 2, 3, 4}}})
	if err != nil {
		t.Fatal(err)
	}

	slow, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer slow.Close()
	_ = slow.SetDeadline(time.Now().Add(flushGuard))
	fmt.Fprintf(slow, "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n", len(body))
	br := bufio.NewReader(slow)
	if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, "100 Continue") {
		t.Fatalf("waiting for 100 Continue: %q, %v", line, err)
	}
	if _, err := slow.Write(body[:len(body)/2]); err != nil {
		t.Fatalf("first half of the slow body: %v", err)
	}

	client := &http.Client{Timeout: flushGuard}
	resp, err := client.Post(s.URL()+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request beside a slow upload: %v (held by a body that has not arrived?)", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request beside a slow upload: status %d", resp.StatusCode)
	}
	if snap := mreg.Snapshot(); snap["casvm_serve_batch_flush_idle_total"] != 1 {
		t.Fatalf("idle flushes = %v, want 1", snap["casvm_serve_batch_flush_idle_total"])
	}

	// The slow client finishes and is served too.
	if _, err := slow.Write(body[len(body)/2:]); err != nil {
		t.Fatalf("second half of the slow body: %v", err)
	}
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "\r\n") {
		t.Fatalf("end of the 100 Continue block: %q, %v", line, err)
	}
	late, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("slow client's response: %v", err)
	}
	_, _ = io.Copy(io.Discard, late.Body)
	late.Body.Close()
	if late.StatusCode != http.StatusOK {
		t.Fatalf("slow client: status %d", late.StatusCode)
	}
}

// TestWarmFlushAllocatesNoNorms: a warm flush takes its rows' norm cache
// from the batcher's own buffer, so at 64 and at 256 queries it makes the
// same number of allocations and its bytes grow by the labels alone, 8 a
// query; a norm cache made per flush would add 8 more.
func TestWarmFlushAllocatesNoNorms(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops Puts under -race; the routed pass's scratch is remade")
	}
	// On one P the routed pass's pooled scratch is the one the last flush
	// put back (see model's TestRoutedPassAllocatesNoRows).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg := NewRegistry()
	h, _, err := reg.AddSet("m", testSet(11, 8))
	if err != nil {
		t.Fatal(err)
	}
	b := &Batcher{handle: h, cfg: BatcherConfig{}.Defaulted()} // flushed here, no loop
	rng := rand.New(rand.NewSource(12))
	var counts []float64
	var bytes []uint64
	for _, n := range []int{64, 256} {
		r := &batchReq{rows: flatQueries(rng, n, 8), nq: n, width: 8, done: make(chan batchOut, 1)}
		flush := func() {
			b.flush([]*batchReq{r}, n)
			if out := <-r.done; out.err != nil || len(out.labels) != n {
				t.Fatalf("flush of %d: %d labels, %v", n, len(out.labels), out.err)
			}
		}
		flush() // the norm buffer and the routed pass's scratch fill once
		counts = append(counts, testing.AllocsPerRun(20, flush))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			flush()
		}
		runtime.ReadMemStats(&after)
		bytes = append(bytes, (after.TotalAlloc-before.TotalAlloc)/20)
	}
	if counts[0] != counts[1] {
		t.Errorf("warm flush of 64 and 256 queries: %v allocations, want one count", counts)
	}
	if grow, labels := bytes[1]-bytes[0], uint64(8*(256-64)); grow > labels {
		t.Errorf("warm flush bytes %d → %d from 64 to 256 queries: +%d, want ≤ %d (the labels)", bytes[0], bytes[1], grow, labels)
	}
}
