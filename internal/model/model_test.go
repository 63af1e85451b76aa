package model

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/mpi"
	"casvm/internal/smo"
)

func trainBlobModel(t *testing.T, seed int64) (*Model, *la.Matrix, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := 80
	dataBuf := make([]float64, m*2)
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		dataBuf[i*2] = sign*2 + 0.4*rng.NormFloat64()
		dataBuf[i*2+1] = sign*2 + 0.4*rng.NormFloat64()
		y[i] = sign
	}
	x := la.NewDense(m, 2, dataBuf)
	cfg := smo.Config{C: 1, Kernel: kernel.RBF(0.5)}
	res, err := smo.Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return FromSolution(x, y, res.Alpha, res.B, cfg.Kernel), x, y
}

func TestFromSolutionAndPredict(t *testing.T) {
	m, x, y := trainBlobModel(t, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NSV() == 0 || m.NSV() == x.Rows() {
		t.Fatalf("NSV=%d", m.NSV())
	}
	if acc := Single(m, nil).Accuracy(x, y); acc < 0.98 {
		t.Errorf("train accuracy %.3f", acc)
	}
	preds := m.PredictAll(x)
	if len(preds) != x.Rows() {
		t.Fatal("PredictAll length")
	}
	for _, p := range preds {
		if p != 1 && p != -1 {
			t.Fatalf("prediction %v", p)
		}
	}
}

func TestFallbackNoSVs(t *testing.T) {
	x := la.NewDense(3, 1, []float64{1, 2, 3})
	y := []float64{1, 1, 1}
	m := FromSolution(x, y, []float64{0, 0, 0}, 0, kernel.RBF(1))
	if m.NSV() != 0 {
		t.Fatal("no SVs expected")
	}
	if predict(m, x, 0) != 1 {
		t.Error("fallback should be the majority label +1")
	}
	yn := []float64{-1, -1, 1}
	mn := FromSolution(x, yn, []float64{0, 0, 0}, 0, kernel.RBF(1))
	if predict(mn, x, 0) != -1 {
		t.Error("fallback should be -1")
	}
}

func TestSetRouting(t *testing.T) {
	// Two models: one always predicts via blob at (5,5), other at (-5,-5).
	mkModel := func(cx float64, label float64) *Model {
		x := la.NewDense(2, 2, []float64{cx, cx, cx + 0.5, cx + 0.5})
		y := []float64{label, label}
		return FromSolution(x, y, []float64{0, 0}, 0, kernel.RBF(1))
	}
	set := &Set{
		Models:  []*Model{mkModel(5, 1), mkModel(-5, -1)},
		Centers: la.NewDense(2, 2, []float64{5, 5, -5, -5}),
	}
	q := la.NewDense(2, 2, []float64{4, 4, -6, -4})
	if route(set, q, 0) != 0 || route(set, q, 1) != 1 {
		t.Fatal("routing wrong")
	}
	if setPredict(set, q, 0) != 1 || setPredict(set, q, 1) != -1 {
		t.Fatal("set predictions wrong")
	}
	if acc := set.Accuracy(q, []float64{1, -1}); acc != 1 {
		t.Fatalf("accuracy %v", acc)
	}
	if set.P() != 2 {
		t.Fatal("P")
	}
}

func TestSingleWrapper(t *testing.T) {
	m, x, y := trainBlobModel(t, 2)
	s := Single(m, []float64{0, 0})
	if s.P() != 1 {
		t.Fatal("single set size")
	}
	if acc := s.Accuracy(x, y); acc < 0.98 {
		t.Errorf("wrapped accuracy %.3f", acc)
	}
}

// csrTwin returns m with its SVs stored as CSR, zeros dropped.
func csrTwin(m *Model) *Model {
	rowptr, idx, val := []int32{0}, []int32(nil), []float64(nil)
	for i := 0; i < m.NSV(); i++ {
		for col, v := range m.SVX.RowInto(i, make([]float64, m.SVX.Features())) {
			if v != 0 {
				idx, val = append(idx, int32(col)), append(val, v)
			}
		}
		rowptr = append(rowptr, int32(len(idx)))
	}
	twin := *m
	twin.SVX = la.NewSparse(m.NSV(), m.SVX.Features(), rowptr, idx, val)
	return &twin
}

// saveLoadSets are a dense two-model set, a CSR one, and one of each.
func saveLoadSets(t *testing.T) map[string]*Set {
	m1, _, _ := trainBlobModel(t, 3)
	m2, _, _ := trainBlobModel(t, 4)
	set := func(a, b *Model) *Set {
		return &Set{Models: []*Model{a, b}, Centers: la.NewDense(2, 2, []float64{2, 2, -2, -2})}
	}
	return map[string]*Set{"dense": set(m1, m2), "csr": set(csrTwin(m1), csrTwin(m2)), "mixed": set(m1, csrTwin(m2))}
}

func saveBytes(t *testing.T, s *Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveLoadRoundTrip: a loaded set is the saved one — each model keeps
// its storage kind, labels and decisions agree bit for bit, and it re-saves
// to the same bytes and hashes alike.
func TestSaveLoadRoundTrip(t *testing.T) {
	_, x, _ := trainBlobModel(t, 3)
	for name, set := range saveLoadSets(t) {
		file := saveBytes(t, set)
		got, err := LoadSet(file)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.P() != 2 || got.NSV() != set.NSV() {
			t.Fatalf("%s: P=%d NSV=%d want %d/%d", name, got.P(), got.NSV(), 2, set.NSV())
		}
		for j, m := range got.Models {
			if m.SVX.Sparse() != set.Models[j].SVX.Sparse() {
				t.Errorf("%s: model %d loaded with the other storage kind", name, j)
			}
		}
		wantL, wantD := set.EvalAll(x)
		gotL, gotD := got.EvalAll(x)
		for i := range wantD {
			if gotL[i] != wantL[i] || math.Float64bits(gotD[i]) != math.Float64bits(wantD[i]) {
				t.Fatalf("%s: row %d decides %v (%v) after the round trip, want %v (%v)", name, i, gotD[i], gotL[i], wantD[i], wantL[i])
			}
		}
		if !bytes.Equal(saveBytes(t, got), file) || got.Hash() != set.Hash() {
			t.Errorf("%s: the loaded set re-saves or hashes differently", name)
		}
	}
}

// TestLoadSetRefusesPrefixes: a model file cut anywhere, or one byte longer,
// is an error, never a different model — a hot reload racing the file's
// writer cannot install half of it.
func TestLoadSetRefusesPrefixes(t *testing.T) {
	sets := saveLoadSets(t)
	for _, name := range []string{"dense", "csr"} {
		file := saveBytes(t, sets[name])
		for i := 0; i < len(file); i++ {
			if _, err := LoadSet(file[:i]); err == nil {
				t.Fatalf("%s: the first %d of %d bytes loaded", name, i, len(file))
			}
		}
		if _, err := LoadSet(append(file, 0)); err == nil {
			t.Errorf("%s: a trailing byte loaded", name)
		}
	}
}

// rawHead is a one-model, two-feature head spelled out by hand, with the
// kernel name, gamma and meta keys given.
func rawHead(kind string, gamma float64, keys ...string) []byte {
	b := appendStr(nil, headTag)
	b = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(b, 1), 2)
	b = la.AppendF64s(appendStr(b, kind), []float64{gamma, 0, 0})
	b = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(b, 0), uint32(len(keys)))
	for _, key := range keys {
		b = appendStr(appendStr(b, key), "v")
	}
	return b
}

// handFile is a model file of the given head and n copies of one
// two-feature model.
func handFile(head []byte, n int) []byte {
	x := la.NewDense(2, 2, []float64{1, 2, -1, -2})
	secs := [][]byte{head}
	for i := 0; i < n; i++ {
		secs = append(secs, EncodeShard(FromSolution(x, []float64{1, -1}, []float64{0.5, 0.5}, 0.1, kernel.RBF(0.5)), []float64{0, 0})...)
	}
	return mpi.PackSections(secs...)
}

// TestLoadSetErrors: every malformed or non-canonical file is an error — a
// set that loads re-saves to its own bytes — and a text model file is
// refused by name.
func TestLoadSetErrors(t *testing.T) {
	if _, err := LoadSet(handFile(rawHead("gaussian", 0.5, "a", "b"), 1)); err != nil {
		t.Fatalf("the hand-spelled file: %v", err)
	}
	cases := map[string][]byte{
		"empty":             nil,
		"junk":              []byte("bogus header\n"),
		"other tag":         bytes.Replace(handFile(rawHead("gaussian", 0.5), 1), []byte(headTag), []byte("casvm-model-set/bin2"), 1),
		"kernel alias":      handFile(rawHead("rbf", 0.5), 1),
		"unknown kernel":    handFile(rawHead("bogus", 0.5), 1),
		"NaN gamma":         handFile(rawHead("gaussian", math.NaN()), 1),
		"infinite gamma":    handFile(rawHead("gaussian", math.Inf(1)), 1),
		"meta out of order": handFile(rawHead("gaussian", 0.5, "b", "a"), 1),
		"meta repeated":     handFile(rawHead("gaussian", 0.5, "a", "a"), 1),
		"head trailing":     handFile(append(rawHead("gaussian", 0.5), 0), 1),
		"a model too many":  handFile(rawHead("gaussian", 0.5), 2),
	}
	for name, in := range cases {
		if _, err := LoadSet(in); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
	_, err := LoadSet([]byte("casvm-model-set v1\nmodels 1\nfeatures 2\n"))
	if err == nil || !strings.Contains(err.Error(), "text model file") {
		t.Errorf("a text model file: %v, want an error naming the format", err)
	}
}

func TestValidateCatchesBadAlpha(t *testing.T) {
	x := la.NewDense(1, 1, []float64{1})
	m := &Model{
		Kernel: kernel.RBF(1),
		SVX:    x,
		SVY:    []float64{1},
		Alpha:  []float64{-0.5},
	}
	if err := m.Validate(); err == nil {
		t.Error("negative alpha should fail validation")
	}
}

// TestLoadSetAllocationBounded: loading a model costs memory in proportion to
// the model — the serving registry and casvm.LoadModelSet go through here on
// every (re)load. A 100-SV, 16-feature model is a ≈ 14 KB file and 15 KB of
// arrays.
func TestLoadSetAllocationBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nsv, n = 100, 16
	vals := make([]float64, nsv*n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	m := &Model{Kernel: kernel.RBF(1.0 / n), SVX: la.NewDense(nsv, n, vals),
		SVY: make([]float64, nsv), Alpha: make([]float64, nsv), B: 0.25, Fallback: 1}
	for i := range m.Alpha {
		m.SVY[i], m.Alpha[i] = float64(1-2*(i%2)), rng.Float64()+0.01
	}
	var buf bytes.Buffer
	if err := SaveSet(&buf, Single(m, make([]float64, n))); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	load := func() {
		set, err := LoadSet(file)
		if err != nil || set.NSV() != nsv {
			t.Fatalf("load: %v", err)
		}
	}
	load()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	perLoad := (after.TotalAlloc - before.TotalAlloc) / runs
	if perLoad >= 256<<10 {
		t.Errorf("LoadSet of a %d-byte model allocated %d bytes, want < 256 KiB", len(file), perLoad)
	}
	allocs := testing.AllocsPerRun(runs, load)
	if allocs >= 2*nsv {
		t.Errorf("LoadSet made %.0f allocations for %d support vectors; a support vector should cost none of its own", allocs, nsv)
	}
	t.Logf("%d-byte file: %d bytes and %.0f allocations per load", len(file), perLoad, allocs)
}
