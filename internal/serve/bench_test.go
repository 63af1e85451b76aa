package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casvm/internal/compress"
	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/model"
	"casvm/internal/serve"
	"casvm/internal/trace"
)

// The serving benchmark fixture: train the face-like dataset, compress it
// with the golden budget, serve it, and hammer it over real HTTP from a
// closed loop of clients. End-to-end serving is gated by the repository
// benchmark's serve-batch and serve-single workloads (`make benchmark`).

var benchFace struct {
	once sync.Once
	set  *model.Set
	err  error
}

// compressedFaceSet trains + compresses once per benchmark binary; the run
// is deterministic (seeded solver, seeded compression), so every iteration
// count serves the identical model.
func compressedFaceSet(b *testing.B) *model.Set {
	benchFace.once.Do(func() {
		ds, entry, err := data.Load("face", 1.0)
		if err != nil {
			benchFace.err = err
			return
		}
		p := core.DefaultParams(core.MethodRACA, 8)
		p.Kernel = kernel.RBF(entry.GammaOrDefault())
		out, err := core.Train(ds.X, ds.Y, p)
		if err != nil {
			benchFace.err = err
			return
		}
		small, _, err := compress.Set(out.Set, compress.Options{
			Budget: 32, PruneFrac: 0.01, Seed: 7,
		})
		if err != nil {
			benchFace.err = err
			return
		}
		compress.Annotate(small, out.Set, ds.TestX, ds.TestY)
		benchFace.set = small
	})
	if benchFace.err != nil {
		b.Fatalf("face fixture: %v", benchFace.err)
	}
	return benchFace.set
}

// BenchmarkDecodePredictRequest prices the decoder alone on the two bodies
// the repository benchmark sends: serve-batch's 256×64 queries_b64 block and
// serve-single's one 64-wide JSON-array row.
func BenchmarkDecodePredictRequest(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	row := func() []float64 {
		q := make([]float64, 64)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		return q
	}
	var flat []float64
	for i := 0; i < 256; i++ {
		flat = append(flat, row()...)
	}
	bodies := []struct {
		name string
		req  serve.PredictRequest
	}{
		{"b64-256x64", serve.PredictRequest{QueriesB64: serve.EncodeQueriesB64(flat), FeatureDim: 64}},
		{"json-1x64", serve.PredictRequest{Queries: [][]float64{row()}}},
	}
	for _, c := range bodies {
		body, err := json.Marshal(c.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := serve.DecodePredictRequest(body, serve.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeClients is the evidence that coalescing pays where there is
// something to coalesce: three closed-loop client mixes against the default
// batcher budgets, from many clients with one query each (the batcher is all
// the amortisation there is) to few clients with full blocks (each request
// is a batch by itself). One op is one request; q/batch is the mean number of
// queries a flush evaluated. Compare preds/s between two commits at the same
// -cpu: batches may shrink as long as throughput does not.
func BenchmarkServeClients(b *testing.B) {
	set := compressedFaceSet(b)
	feats := set.Centers.Features()
	cells := []struct {
		name             string
		clients, queries int
		binary           bool
	}{
		{"16x1-json", 16, 1, false},
		{"16x16-b64", 16, 16, true},
		{"4x256-b64", 4, 256, true},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			reg := trace.NewRegistry()
			s, err := serve.Start("localhost:0", serve.Config{Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.AddModelSet("default", set); err != nil {
				b.Fatal(err)
			}
			bodies := loadBodies(b, c.queries, feats, c.binary)
			closedLoop(b, s.URL(), bodies, c.clients, 64) // warm connections and the batcher
			queries := reg.Counter("casvm_serve_queries_total", "")
			batches := reg.Counter("casvm_serve_batches_total", "")
			q0, b0 := queries.Value(), batches.Value()

			b.ResetTimer()
			start := time.Now()
			closedLoop(b, s.URL(), bodies, c.clients, b.N)
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N*c.queries)/elapsed.Seconds(), "preds/s")
			b.ReportMetric(float64(queries.Value()-q0)/float64(batches.Value()-b0), "q/batch")
		})
	}
}

// loadBodies marshals a few distinct /predict bodies of n queries each, so
// batches are not byte-identical and the clients spend no time encoding.
func loadBodies(b *testing.B, n, feats int, binary bool) [][]byte {
	rng := rand.New(rand.NewSource(2))
	bodies := make([][]byte, 8)
	for i := range bodies {
		flat := make([]float64, n*feats)
		for j := range flat {
			flat[j] = rng.NormFloat64()
		}
		var req serve.PredictRequest
		if binary {
			req.QueriesB64, req.FeatureDim = serve.EncodeQueriesB64(flat), feats
		} else {
			for r := 0; r < n; r++ {
				req.Queries = append(req.Queries, flat[r*feats:(r+1)*feats])
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// closedLoop sends n requests from clients workers over real HTTP; each
// worker posts its next body as soon as it has read the previous reply. Any
// transport error or non-200 reply fails b.
func closedLoop(b *testing.B, url string, bodies [][]byte, clients, n int) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	var issued atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := issued.Add(1); i <= int64(n); i = issued.Add(1) {
				resp, err := client.Post(url+"/predict", "application/json", bytes.NewReader(bodies[i%int64(len(bodies))]))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("predict: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
}
