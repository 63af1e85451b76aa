package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/mpi"
)

// refDecodePart and refMergeParts are the decoder pair decodeParts
// replaced, kept as its oracle: one la.DecodeMatrix and la.DecodeF64 per
// payload, then one la.Concat.
func refDecodePart(buf []byte) (part, error) {
	secs, err := mpi.UnpackSections(buf, mpi.AnyCount)
	if err != nil {
		return part{}, err
	}
	if len(secs) != 2 && len(secs) != 3 {
		return part{}, fmt.Errorf("core: envelope has %d sections", len(secs))
	}
	x, err := la.DecodeMatrix(secs[0])
	if err != nil {
		return part{}, err
	}
	y, err := la.DecodeF64(secs[1])
	if err != nil {
		return part{}, err
	}
	p := part{x: x, y: y}
	if len(secs) == 3 {
		if p.alpha, err = la.DecodeF64(secs[2]); err != nil {
			return part{}, err
		}
		if len(p.alpha) != len(y) {
			return part{}, fmt.Errorf("core: %d alphas for %d labels", len(p.alpha), len(y))
		}
	}
	if x.Rows() != len(y) {
		return part{}, fmt.Errorf("core: %d rows for %d labels", x.Rows(), len(y))
	}
	return p, nil
}

func refMergeParts(parts []part) part {
	if len(parts) == 1 {
		return parts[0]
	}
	xs := make([]*la.Matrix, len(parts))
	rows, haveAlpha := 0, true
	for k, q := range parts {
		xs[k] = q.x
		rows += len(q.y)
		haveAlpha = haveAlpha && q.alpha != nil
	}
	out := part{x: la.Concat(xs...), y: make([]float64, 0, rows)}
	if haveAlpha && rows > 0 {
		out.alpha = make([]float64, 0, rows)
	}
	for _, q := range parts {
		out.y = append(out.y, q.y...)
		if out.alpha != nil {
			out.alpha = append(out.alpha, q.alpha...)
		}
	}
	return out
}

// refDecodeParts runs the oracle pair; a panic (la.Concat refuses mixed
// storage kinds and feature counts by panicking) counts as an error.
func refDecodeParts(bufs [][]byte) (p part, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	parts := make([]part, len(bufs))
	for k, buf := range bufs {
		if parts[k], err = refDecodePart(buf); err != nil {
			return part{}, err
		}
	}
	return refMergeParts(parts), nil
}

// samePart reports where two parts differ: storage kind, shape, every stored
// index and value bit for bit, labels and multipliers. No multipliers and an
// empty multiplier slice are the same (the oracle returned either for an
// empty set).
func samePart(a, b part) error {
	if a.x.Sparse() != b.x.Sparse() || a.x.Rows() != b.x.Rows() || a.x.Features() != b.x.Features() {
		return fmt.Errorf("matrix sparse=%v %d×%d, want sparse=%v %d×%d",
			a.x.Sparse(), a.x.Rows(), a.x.Features(), b.x.Sparse(), b.x.Rows(), b.x.Features())
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	for i := range a.x.Rows() {
		var ai, bi []int32
		var av, bv []float64
		if a.x.Sparse() {
			ai, av = a.x.SparseRow(i)
			bi, bv = b.x.SparseRow(i)
		} else {
			av, bv = a.x.DenseRow(i), b.x.DenseRow(i)
		}
		if fmt.Sprint(ai, bits(av)) != fmt.Sprint(bi, bits(bv)) {
			return fmt.Errorf("row %d: %v %v, want %v %v", i, ai, av, bi, bv)
		}
	}
	if fmt.Sprint(bits(a.y)) != fmt.Sprint(bits(b.y)) || fmt.Sprint(bits(a.alpha)) != fmt.Sprint(bits(b.alpha)) {
		return fmt.Errorf("labels %v alphas %v, want %v %v", a.y, a.alpha, b.y, b.alpha)
	}
	return nil
}

// wireSeedParts are the inputs the fuzz target starts from, each a list of
// payloads; testdata/fuzz/FuzzDecodeParts holds each framed as one
// mpi.PackSections envelope under its name. They are dense and CSR parts with
// and without multipliers, a zero-row part, truncated sections, label and
// multiplier counts that disagree with the rows, mixed storage kinds and
// feature counts, and a CSR part whose indices are out of order.
func wireSeedParts() map[string][][]byte {
	dense := la.NewDense(4, 3, []float64{0.5, -1, 2, 0.25, 3, -0.125, 1.5, 0, -2, 4, 0.75, -3})
	sparse := la.NewSparse(4, 6, []int32{0, 2, 2, 3, 5}, []int32{0, 4, 5, 1, 3},
		[]float64{0.5, -1.25, 2, 3.5, -0.75})
	y := []float64{1, -1, -1, 1}
	alpha := []float64{0.25, 0, 1, 0.5}
	dA := encodePart(dense, y, alpha, []int{0, 2, 3})
	dB := encodePart(dense, y, alpha, []int{1})
	dN := encodePart(dense, y, nil, []int{3, 1})
	sA := encodePart(sparse, y, alpha, []int{3, 0})
	sB := encodePart(sparse, y, alpha, []int{1, 2})
	sN := encodePart(sparse, y, nil, []int{0, 1, 2, 3})
	empty := encodePart(dense, y, alpha, nil)
	badCSR := bytes.Clone(sN)
	// The first row's two indices, 0 and 4, swapped.
	idx := 4 + 4 + 9 + 4*5
	copy(badCSR[idx:], []byte{4, 0, 0, 0, 0, 0, 0, 0})
	wrongLabels := mpi.PackSections(dense.EncodeRows([]int{0, 1}), la.EncodeF64(y[:3]))
	wrongAlphas := mpi.PackSections(dense.EncodeRows([]int{0, 1}), la.EncodeF64(y[:2]), la.EncodeF64(alpha[:1]))
	otherWidth := encodePart(la.NewDense(1, 2, []float64{1, 2}), y, alpha, []int{0})
	return map[string][][]byte{
		"dense":             {dA, dB},
		"dense-no-alpha":    {dN},
		"dense-mixed-alpha": {dA, dN},
		"csr":               {sA, sB},
		"csr-no-alpha":      {sN, sA},
		"zero-row":          {empty, dA, empty},
		"only-zero-rows":    {empty, empty},
		"truncated":         {dA[:len(dA)-3]},
		"truncated-csr":     {sA, sB[:20]},
		"labels-vs-rows":    {wrongLabels},
		"alphas-vs-labels":  {dA, wrongAlphas},
		"mixed-kinds":       {dA, sA},
		"mixed-features":    {dA, otherWidth},
		"csr-out-of-order":  {badCSR},
		"one-section":       {mpi.PackSections(dense.EncodeRows([]int{0}))},
	}
}

// splitFuzzInput reads a fuzz input as a PackSections envelope of payloads
// (at most eight), or failing that as one payload.
func splitFuzzInput(in []byte) [][]byte {
	if bufs, err := mpi.UnpackSections(in, mpi.AnyCount); err == nil && len(bufs) > 0 && len(bufs) <= 8 {
		return bufs
	}
	return [][]byte{in}
}

// FuzzDecodeParts holds decodeParts to the decoder pair it replaced: on
// whatever the oracle accepts it returns the same part, bit for bit; on
// anything else — the oracle's errors and panics — it returns an error, and
// it never panics. The payloads it decodes arrive over a tcpmpi mesh from
// other processes. Its seeds are wireSeedParts, in testdata/fuzz.
func FuzzDecodeParts(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		bufs := splitFuzzInput(in)
		want, wantErr := refDecodeParts(bufs)
		got, err := decodeParts(bufs)
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("accepted what the oracle refused (%v)", wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("refused what the oracle accepted: %v", err)
		case err == nil:
			if d := samePart(got, want); d != nil {
				t.Fatal(d)
			}
		}
	})
}

// TestDecodePartsSeeds runs every seed through both decoders by name, so a
// seed that stops meaning what its name says shows here: the malformed ones
// must be refused. It also holds the fuzz corpus to the seeds: the file of
// each name is that seed's envelope, byte for byte, so the corpus pins the
// wire bytes encodePart writes.
func TestDecodePartsSeeds(t *testing.T) {
	valid := map[string]bool{"dense": true, "dense-no-alpha": true, "dense-mixed-alpha": true,
		"csr": true, "csr-no-alpha": true, "zero-row": true, "only-zero-rows": true}
	for name, bufs := range wireSeedParts() {
		want, wantErr := refDecodeParts(bufs)
		got, err := decodeParts(bufs)
		if (err == nil) != valid[name] || (wantErr == nil) != valid[name] {
			t.Fatalf("%s: decodeParts error %v, oracle error %v", name, err, wantErr)
		}
		if err == nil {
			if d := samePart(got, want); d != nil {
				t.Fatalf("%s: %v", name, d)
			}
		}
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeParts", name))
		if err != nil {
			t.Fatal(err)
		}
		if corpus := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", mpi.PackSections(bufs...)); string(file) != corpus {
			t.Fatalf("%s: the fuzz corpus file is not the seed's envelope", name)
		}
	}
}

// TestEncodePartWireBytes: encodePart writes byte for byte the envelope the
// three-buffer form wrote — mpi.PackSections of x.EncodeRows and la.EncodeF64
// of the selected labels (and multipliers) — dense and CSR, with and without
// multipliers, for any row selection including none.
func TestEncodePartWireBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := make([]float64, 7*5)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	sp := la.NewSparse(3, 9, []int32{0, 2, 2, 5}, []int32{1, 8, 0, 3, 7}, []float64{1, 2, 3, 4, 5})
	y := []float64{1, -1, 1, 1, -1, -1, 1}
	alpha := []float64{0.1, 0, 0.3, 1, 0, 0.7, 0.2}
	for _, x := range []*la.Matrix{la.NewDense(7, 5, d), sp} {
		for _, rows := range [][]int{nil, {0}, {2, 0, 1}, allRows(x.Rows())} {
			for _, a := range [][]float64{nil, alpha} {
				want := mpi.PackSections(x.EncodeRows(rows), la.EncodeF64(subsetF64(y, rows)))
				if a != nil {
					want = mpi.PackSections(x.EncodeRows(rows), la.EncodeF64(subsetF64(y, rows)),
						la.EncodeF64(subsetF64(a, rows)))
				}
				got := encodePart(x, y, a, rows)
				if !bytes.Equal(got, want) || cap(got) != len(got) {
					t.Fatalf("sparse=%v rows=%v alpha=%v: %d bytes (cap %d), want %d",
						x.Sparse(), rows, a != nil, len(got), cap(got), len(want))
				}
			}
		}
	}
}

// poisonChunkPool hands NaN-filled storage to the kernel caches' chunk pool
// through the public API: a column cache whose 1,024-value columns fill its
// chunks exactly, every entry written NaN, then released. Its samples have
// no features, so its working set takes no chunk.
func poisonChunkPool(chunks int) {
	const rowLen, perChunk = 1024, 16
	c := kernel.NewColumnCache(chunks*perChunk, chunks*perChunk, la.Zeros(rowLen, 0))
	for g := range chunks * perChunk {
		for i, k := 0, c.Column(c.Put(g, nil)); i < len(k); i++ {
			k[i] = math.NaN()
		}
	}
	c.Release()
}

// TestGoldenFCFSCAOverPoisonedPool trains the golden FCFS-CA configuration
// (the root package's TestGoldenEndToEnd: toy, P=4, RBF(0.5)) with the kernel
// caches' chunk pool primed with NaN-filled storage, and lands on the pinned
// ModelHash, iterations and flops: recycled rows are filled before they are
// read.
func TestGoldenFCFSCAOverPoisonedPool(t *testing.T) {
	ds, _, err := data.Load("toy", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pr := DefaultParams(MethodFCFSCA, 4)
	pr.Kernel = kernel.RBF(0.5)
	poisonChunkPool(64)
	out, err := Train(ds.X, ds.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	const want = "f57fcd063f9466c596dc1442c65066dd8691ec686ec995ca97c9f07bbd2b7dd6"
	if h := hashOf(t, out); h != want {
		t.Fatalf("model hash %s over a poisoned pool, want %s", h, want)
	}
	if out.Stats.Iters != 604 || out.Stats.TotalFlops != 1.6531327e+07 {
		t.Fatalf("iters %d flops %v, want 604 and 1.6531327e+07", out.Stats.Iters, out.Stats.TotalFlops)
	}
}

// subsetF64 gathers y[rows].
func subsetF64(y []float64, rows []int) []float64 {
	out := make([]float64, len(rows))
	for k, i := range rows {
		out[k] = y[i]
	}
	return out
}
