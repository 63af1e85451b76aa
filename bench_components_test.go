package casvm

// Component micro-benchmarks: the SMO solver, the kernel primitives, the
// message-passing collectives and the partitioners. These quantify the
// building blocks the per-table benchmarks compose.

import (
	"bytes"
	"math/rand"
	"testing"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/kmeans"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/partition"
	"casvm/internal/perfmodel"
	"casvm/internal/smo"
)

func benchDataset(b *testing.B, m int) *data.Dataset {
	b.Helper()
	d, err := data.Generate(data.MixtureSpec{
		Name: "bench", Train: m, Test: 0, Features: 32, Clusters: 4,
		Separation: 7, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02,
		Margin: 0.8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkSMOSolve1k(b *testing.B) {
	d := benchDataset(b, 1000)
	cfg := smo.Config{C: 1, Kernel: kernel.RBF(1.0 / 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smo.Solve(d.X, d.Y, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSMOIteration(b *testing.B) {
	d := benchDataset(b, 2000)
	cfg := smo.Config{C: 1, Kernel: kernel.RBF(1.0 / 64)}
	s, err := smo.New(d.X, d.Y, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Step() {
			b.StopTimer()
			s, _ = smo.New(d.X, d.Y, cfg, nil) // converged: restart
			b.StartTimer()
		}
	}
}

func BenchmarkKernelRowDense(b *testing.B) {
	d := benchDataset(b, 2000)
	p := kernel.RBF(1.0 / 64)
	dsts := [][]float64{make([]float64, d.M())}
	cols := make([]int32, d.M()) // every column: a fill with nothing to copy
	for j := range cols {
		cols[j] = int32(j)
	}
	b.ReportAllocs()
	b.SetBytes(int64(8 * d.M() * d.Features()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Tile(d.X, []int{i % d.M()}, dsts, cols, 1)
	}
}

func BenchmarkKernelRowCache(b *testing.B) {
	d := benchDataset(b, 2000)
	c := kernel.NewRowCache(kernel.RBF(1.0/64), d.X, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Row(i % 128) // working set smaller than capacity: mostly hits
	}
}

func BenchmarkAllreduce8Ranks(b *testing.B) {
	w := mpi.NewWorld(8, perfmodel.Hopper(), 1)
	payload := make([]float64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(c *mpi.Comm) error {
		for i := 0; i < b.N; i++ {
			c.AllreduceSum(payload)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBcast64Ranks(b *testing.B) {
	w := mpi.NewWorld(64, perfmodel.Hopper(), 1)
	payload := make([]byte, 4096)
	b.ResetTimer()
	err := w.Run(func(c *mpi.Comm) error {
		for i := 0; i < b.N; i++ {
			var in []byte
			if c.Rank() == 0 {
				in = payload
			}
			c.Bcast(0, in)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkKMeans(b *testing.B) {
	d := benchDataset(b, 2000)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmeans.Run(d.X, kmeans.Seed(d.X, 8, rng), 0, 0)
	}
}

func BenchmarkPartitionFCFS(b *testing.B) {
	d := benchDataset(b, 2000)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.FCFS(d.X, d.Y, 8, partition.Options{RatioBalanced: true}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictRouted(b *testing.B) {
	ds, entry, err := LoadDataset("toy", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams(MethodRACA, 8)
	p.Kernel = RBF(entry.GammaOrDefault())
	out, _, err := TrainDataset(ds, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Set.Predict(ds.TestX, i%ds.TestX.Rows())
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	d := benchDataset(b, 1000)
	rows := make([]int, d.M())
	for i := range rows {
		rows[i] = i
	}
	b.SetBytes(int64(d.X.EncodedSize(rows)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := d.X.EncodeRows(rows)
		if _, err := la.DecodeMatrix(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// remoteJobSets trains the model set of the repository benchmark's
// cluster-remote job (bench/cluster.go: RA-CA, P=4, 400×16 mixture, 384 SVs)
// — the set every finished remote job encodes once per shard, decodes once
// per shard and hashes once — and its CSR twin, which is what loading the
// dense one's text yields. text is the set's model-file form.
func remoteJobSets(b *testing.B) (dense, sparse *model.Set, text []byte) {
	b.Helper()
	d, err := data.Generate(data.MixtureSpec{
		Name: "cluster-remote", Train: 400, Test: 400, Features: 16, Clusters: 4,
		Separation: 6, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02, Margin: 1, Seed: 2015,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams(core.MethodRACA, 4)
	p.Kernel = kernel.RBF(1.0 / 16)
	out, err := core.Train(d.X, d.Y, p)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveSet(&buf, out.Set); err != nil {
		b.Fatal(err)
	}
	if sparse, err = model.LoadSet(bytes.NewReader(buf.Bytes())); err != nil {
		b.Fatal(err)
	}
	return out.Set, sparse, buf.Bytes()
}

// BenchmarkModelHash is the fingerprint of a finished job: the text format
// streamed through SHA-256.
func BenchmarkModelHash(b *testing.B) {
	set, _, text := remoteJobSets(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ModelHash(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSet parses the same set's model file, as the serving registry
// and casvm.Load do.
func BenchmarkLoadSet(b *testing.B) {
	_, _, text := remoteJobSets(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.LoadSet(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardCodec is what crossing a process boundary costs the job's
// four shards, each way: sections framed by mpi.PackSections, as
// core.GatherOutput and the cluster's rank-done frame carry them. wire_B/op
// is the four envelopes together.
func BenchmarkShardCodec(b *testing.B) {
	dense, sparse, _ := remoteJobSets(b)
	for _, tc := range []struct {
		name string
		set  *model.Set
	}{{"dense", dense}, {"sparse", sparse}} {
		encode := func() (frames [][]byte, wire int) {
			for j, m := range tc.set.Models {
				f := mpi.PackSections(model.EncodeShard(m, tc.set.Centers.DenseRow(j))...)
				frames, wire = append(frames, f), wire+len(f)
			}
			return frames, wire
		}
		frames, wire := encode()
		b.Run("encode/"+tc.name, func(b *testing.B) {
			b.SetBytes(int64(wire))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encode()
			}
			b.ReportMetric(float64(wire), "wire_B/op")
		})
		b.Run("decode/"+tc.name, func(b *testing.B) {
			k, n := tc.set.Models[0].Kernel, tc.set.Centers.Features()
			b.SetBytes(int64(wire))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, f := range frames {
					secs, err := mpi.UnpackSections(f, model.ShardSections)
					if err == nil {
						_, _, err = model.DecodeShard(secs, k, n)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(wire), "wire_B/op")
		})
	}
}
