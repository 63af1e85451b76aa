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

// BenchmarkKernelRowDense prices one whole kernel row as the lazy fill
// evaluates it with nothing to copy: a one-column CrossTile of every row
// against the missing one.
func BenchmarkKernelRowDense(b *testing.B) {
	d := benchDataset(b, 2000)
	p := kernel.RBF(1.0 / 64)
	dst := make([]float64, d.M())
	rows := make([]int, d.M())
	for j := range rows {
		rows[j] = j
	}
	b.ReportAllocs()
	b.SetBytes(int64(8 * d.M() * d.Features()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % d.M()
		p.CrossTile(d.X, rows, d.X, j, j+1, dst, 1)
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

// benchTrain times one whole training job per op on the training rows of
// spec, so its B/op and allocs/op move with the matching repository
// benchmark workload's alloc_mb_per_op. `make memprof` profiles the three
// below.
func benchTrain(b *testing.B, spec data.MixtureSpec, method Method, p int, gamma float64) {
	d, err := data.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams(method, p)
	params.Kernel = RBF(gamma)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(d.X, d.Y, params); err != nil {
			b.Fatal(err)
		}
	}
}

// denseBenchMixture is the 32-feature mixture of the dense workloads.
func denseBenchMixture(name string, train int) data.MixtureSpec {
	return data.MixtureSpec{
		Name: name, Train: train, Test: 2000, Features: 32, Clusters: 8,
		Separation: 6, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.03, Margin: 1, Seed: 2015,
	}
}

// BenchmarkTrainFCFSCADense is the casvm-dense workload's job: FCFS-CA,
// P = 8, on the 3,600×32 mixture, gamma by the benchmark's rule.
func BenchmarkTrainFCFSCADense(b *testing.B) {
	benchTrain(b, denseBenchMixture("casvm-dense", 3600), MethodFCFSCA, 8, 1.0/(2*32))
}

// BenchmarkTrainFCFSCASparse is the casvm-sparse workload's job: FCFS-CA,
// P = 8, on 1,500×2,048 CSR rows of density 0.02, gamma by the benchmark's
// rule (the stored features of a row).
func BenchmarkTrainFCFSCASparse(b *testing.B) {
	benchTrain(b, data.MixtureSpec{
		Name: "casvm-sparse", Train: 1500, Test: 1500, Features: 2048, Clusters: 6,
		Separation: 8, Noise: 1, PosFrac: []float64{0.6}, LabelNoise: 0.008, Margin: 0.8,
		Sparse: true, Density: 0.02, Seed: 2015,
	}, MethodFCFSCA, 8, 1/(2*2048*0.02))
}

// BenchmarkTrainDisSMODense is the dissmo-dense workload's job: Dis-SMO,
// P = 4, on the 640×32 mixture.
func BenchmarkTrainDisSMODense(b *testing.B) {
	benchTrain(b, denseBenchMixture("dissmo-dense", 640), MethodDisSMO, 4, 1.0/(2*32))
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
		out.Set.PredictAll(ds.TestX.Subset([]int{i % ds.TestX.Rows()}))
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
// per shard and hashes once — and its CSR twin, zeros dropped. file is the
// set's model file.
func remoteJobSets(b *testing.B) (dense, sparse *model.Set, file []byte) {
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
	sparse = &model.Set{Centers: out.Set.Centers, Meta: out.Set.Meta}
	for _, m := range out.Set.Models {
		rowptr, idx, val := []int32{0}, []int32(nil), []float64(nil)
		for i := 0; i < m.NSV(); i++ {
			for col, v := range m.SVX.DenseRow(i) {
				if v != 0 {
					idx, val = append(idx, int32(col)), append(val, v)
				}
			}
			rowptr = append(rowptr, int32(len(idx)))
		}
		twin := *m
		twin.SVX = la.NewSparse(m.NSV(), m.SVX.Features(), rowptr, idx, val)
		sparse.Models = append(sparse.Models, &twin)
	}
	var buf bytes.Buffer
	if err := model.SaveSet(&buf, out.Set); err != nil {
		b.Fatal(err)
	}
	return out.Set, sparse, buf.Bytes()
}

// canonicalLen is the length of the binary form Set.Hash streams through
// SHA-256, counted from the layout model/hash.go documents.
func canonicalLen(s *model.Set) int {
	k := s.Models[0].Kernel
	n := 4 + len("casvm-model-set/bin1") + 4 + 4 + 4 + len(k.Kind.String()) + 3*8 + 4 + 4
	for key, v := range s.Meta {
		n += 4 + len(key) + 4 + len(v)
	}
	n += 8 * s.Centers.Rows() * s.Centers.Features()
	for _, m := range s.Models {
		n += 4 + 8 + 8
		for i := 0; i < m.NSV(); i++ {
			n += 8 + 8 + 4
			for _, v := range m.SVX.RowInto(i, make([]float64, m.SVX.Features())) {
				if v != 0 {
					n += 4 + 8
				}
			}
		}
	}
	return n
}

// BenchmarkModelHash is the fingerprint of a finished job: the set's
// canonical binary form streamed through SHA-256.
func BenchmarkModelHash(b *testing.B) {
	set, _, _ := remoteJobSets(b)
	b.SetBytes(int64(canonicalLen(set)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ModelHash(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSet decodes the same set's model file, as the serving
// registry and casvm.LoadModelSet do.
func BenchmarkLoadSet(b *testing.B) {
	_, _, file := remoteJobSets(b)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.LoadSet(file); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardCodec is what crossing a process boundary costs the job's
// four shards, each way: sections framed by mpi.PackSections, as the
// cluster's rank-done frame carries them. wire_B/op is the four envelopes
// together.
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
