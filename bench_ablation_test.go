// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// reports domain metrics (iterations, spreads) through b.ReportMetric in
// addition to time, so `go test -bench=Ablation` doubles as an ablation
// study:
//
//   - working-set selection: the maximal violating pair of Alg 1
//   - warm starting merged Cascade layers vs cold restarts
//   - pos/neg ratio balancing on vs off (node-time spread)
//   - one Cascade pass vs two
//   - kernel row-cache capacity sweep
package casvm

import (
	"testing"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/smo"
)

func ablationSet(b *testing.B, m int) *data.Dataset {
	b.Helper()
	d, err := data.Generate(data.MixtureSpec{
		Name: "ablate", Train: m, Test: m / 4, Features: 16, Clusters: 4,
		Separation: 6, Noise: 1, PosFrac: []float64{0.3}, LabelNoise: 0.03,
		Margin: 0.6, Seed: 99,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkAblationWSSFirstOrder(b *testing.B) {
	d := ablationSet(b, 1200)
	cfg := smo.Config{C: 1, Kernel: kernel.RBF(1.0 / 32)}
	var iters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := smo.Solve(d.X, d.Y, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iters
	}
	b.ReportMetric(float64(iters), "iterations")
}

// Warm starts are the Cascade paper's trick for cutting layer iterations;
// quantify by re-solving a solved problem warm vs cold.
func BenchmarkAblationWarmStart(b *testing.B) {
	d := ablationSet(b, 1000)
	cfg := smo.Config{C: 1, Kernel: kernel.RBF(1.0 / 32)}
	cold, err := smo.Solve(d.X, d.Y, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	var warmIters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := smo.Solve(d.X, d.Y, cfg, cold.Alpha)
		if err != nil {
			b.Fatal(err)
		}
		warmIters = res.Iters
	}
	b.ReportMetric(float64(cold.Iters), "cold-iterations")
	b.ReportMetric(float64(warmIters), "warm-iterations")
}

func benchRatioBalance(b *testing.B, ratio bool) {
	d, _, err := data.Load("face", 0.4)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams(core.MethodFCFSCA, 8)
	p.Kernel = RBF(1.0 / 128)
	p.RatioBalanced = ratio
	var spreadVal float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := core.Train(d.X, d.Y, p)
		if err != nil {
			b.Fatal(err)
		}
		min, max := out.Stats.NodeTrainSec[0], out.Stats.NodeTrainSec[0]
		for _, t := range out.Stats.NodeTrainSec {
			if t < min {
				min = t
			}
			if t > max {
				max = t
			}
		}
		if min > 0 {
			spreadVal = max / min
		}
	}
	b.ReportMetric(spreadVal, "slow/fast-node")
}

func BenchmarkAblationRatioBalanceOff(b *testing.B) { benchRatioBalance(b, false) }
func BenchmarkAblationRatioBalanceOn(b *testing.B)  { benchRatioBalance(b, true) }

func benchCacheRows(b *testing.B, rows int) {
	d := ablationSet(b, 1500)
	cfg := smo.Config{C: 1, Kernel: kernel.RBF(1.0 / 32), CacheRows: rows}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smo.Solve(d.X, d.Y, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCache2Rows(b *testing.B)    { benchCacheRows(b, 2) }
func BenchmarkAblationCache64Rows(b *testing.B)   { benchCacheRows(b, 64) }
func BenchmarkAblationCache1024Rows(b *testing.B) { benchCacheRows(b, 1024) }
