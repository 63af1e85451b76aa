package serve_test

import (
	"sync"
	"testing"

	"casvm/internal/compress"
	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/model"
	"casvm/internal/serve"
	"casvm/internal/trace"
)

// The serving benchmark fixture: train the face-like dataset, compress it
// with the golden budget, serve it, and hammer it over real HTTP with the
// shared load generator. End-to-end serving is gated by the repository
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
			load := serve.LoadOptions{
				URL: s.URL(), Features: feats, Concurrency: c.clients,
				QueriesPerRequest: c.queries, Binary: c.binary,
			}
			warm := load
			warm.Requests, warm.Seed = 64, 1
			if _, err := serve.RunLoad(warm); err != nil {
				b.Fatal(err)
			}
			queries := reg.Counter("casvm_serve_queries_total", "")
			batches := reg.Counter("casvm_serve_batches_total", "")
			q0, b0 := queries.Value(), batches.Value()

			load.Requests, load.Seed = int64(b.N), 2
			b.ResetTimer()
			res, err := serve.RunLoad(load)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if res.Errors > 0 {
				b.Fatalf("%d load errors", res.Errors)
			}
			b.ReportMetric(res.PredsPerSec, "preds/s")
			b.ReportMetric(float64(res.P50), "p50-ns")
			b.ReportMetric(float64(res.P99), "p99-ns")
			b.ReportMetric(float64(queries.Value()-q0)/float64(batches.Value()-b0), "q/batch")
		})
	}
}
