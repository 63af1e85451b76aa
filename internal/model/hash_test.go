package model_test

import (
	"bytes"
	"math"
	"testing"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
)

// fileRoundTrip is what a model file gives back: SaveSet then LoadSet.
func fileRoundTrip(t *testing.T, s *model.Set) *model.Set {
	t.Helper()
	var buf bytes.Buffer
	if err := model.SaveSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := model.LoadSet(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// goldenSets trains the model sets the golden hashes of golden_e2e_test.go
// are taken from, plus a sparse one.
func goldenSets(t *testing.T) map[string]*model.Set {
	t.Helper()
	sets := map[string]*model.Set{}
	toy, _, err := data.Load("toy", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		m core.Method
		p int
	}{{core.MethodRACA, 4}, {core.MethodFCFSCA, 4}, {core.MethodDisSMO, 2}} {
		pr := core.DefaultParams(g.m, g.p)
		pr.Kernel = kernel.RBF(0.5)
		out, err := core.Train(toy.X, toy.Y, pr)
		if err != nil {
			t.Fatal(err)
		}
		sets[string(g.m)] = out.Set
	}
	sp, err := data.Generate(data.MixtureSpec{Name: "sparse", Train: 200, Features: 64, Clusters: 4, Separation: 6,
		Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02, Sparse: true, Density: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pr := core.DefaultParams(core.MethodRACA, 2)
	pr.Kernel = kernel.RBF(1.0 / 64)
	out, err := core.Train(sp.X, sp.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Set.Models[0].SVX.Sparse() {
		t.Fatal("the sparse mixture trained a dense model")
	}
	sets["ra-ca sparse"] = out.Set
	return sets
}

// storeEveryEntry returns s with each dense SV matrix stored as CSR, zeros
// and −0 kept as explicit entries.
func storeEveryEntry(s *model.Set) *model.Set {
	out := &model.Set{Centers: s.Centers, Meta: s.Meta}
	for _, m := range s.Models {
		rows, n := m.SVX.Rows(), m.SVX.Features()
		rowptr, idx, val := []int32{0}, []int32(nil), []float64(nil)
		for i := 0; i < rows; i++ {
			for col, v := range m.SVX.DenseRow(i) {
				idx, val = append(idx, int32(col)), append(val, v)
			}
			rowptr = append(rowptr, int32(len(idx)))
		}
		twin := *m
		twin.SVX = la.NewSparse(rows, n, rowptr, idx, val)
		out.Models = append(out.Models, &twin)
	}
	return out
}

// TestHashIndependentOfStorage: a dense set, the set its model file loads as,
// and a CSR twin storing every zero hash equal — on a hand-built set with
// zeros and −0 among the SV entries and on the golden sets.
func TestHashIndependentOfStorage(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	x := la.NewDense(3, 4, []float64{1, 0, neg0, 2.5, 0, 0, 0, 0, -1e-300, 5e-324, 0, 7})
	m := &model.Model{Kernel: kernel.RBF(0.25), SVX: x, SVY: []float64{1, -1, 1},
		Alpha: []float64{0.5, 1, 1e-9}, B: neg0, Fallback: -1}
	sets := goldenSets(t)
	sets["hand-built"] = model.Single(m, []float64{0.1, neg0, 3, 0})
	for name, s := range sets {
		want := s.Hash()
		if got := fileRoundTrip(t, s).Hash(); got != want {
			t.Errorf("%s: loaded from its file hashes to %s, want %s", name, got, want)
		}
		if s.Models[0].SVX.Sparse() {
			continue
		}
		if got := storeEveryEntry(s).Hash(); got != want {
			t.Errorf("%s: CSR twin with explicit zeros hashes to %s, want %s", name, got, want)
		}
	}
}

// hashBase is a two-model CSR set with meta; each call builds a fresh one.
func hashBase() *model.Set {
	k := kernel.RBF(0.5)
	a := &model.Model{Kernel: k, B: 0.25, Fallback: 1, SVY: []float64{1, -1}, Alpha: []float64{0.5, 0.75},
		SVX: la.NewSparse(2, 3, []int32{0, 2, 3}, []int32{0, 2, 1}, []float64{1, -2, 3})}
	b := &model.Model{Kernel: k, B: -0.5, Fallback: -1, SVY: []float64{-1}, Alpha: []float64{0.125},
		SVX: la.NewSparse(1, 3, []int32{0, 1}, []int32{2}, []float64{4})}
	s := &model.Set{Models: []*model.Model{a, b}, Centers: la.NewDense(2, 3, []float64{1, 2, 3, -1, -2, -3})}
	s.SetMeta("budget", "64")
	return s
}

// flipBit changes the lowest mantissa bit of *v.
func flipBit(v *float64) { *v = math.Float64frombits(math.Float64bits(*v) ^ 1) }

// TestHashSeesEveryField: a one-bit change of any number, or a change of any
// one field, yields a digest of its own.
func TestHashSeesEveryField(t *testing.T) {
	edits := map[string]func(s *model.Set){
		"alpha":          func(s *model.Set) { flipBit(&s.Models[0].Alpha[1]) },
		"label":          func(s *model.Set) { s.Models[1].SVY[0] = 1 },
		"bias":           func(s *model.Set) { flipBit(&s.Models[1].B) },
		"fallback":       func(s *model.Set) { s.Models[0].Fallback = -1 },
		"center":         func(s *model.Set) { flipBit(&s.Centers.DenseRow(1)[2]) },
		"SV value":       func(s *model.Set) { _, v := s.Models[0].SVX.SparseRow(0); flipBit(&v[1]) },
		"SV column":      func(s *model.Set) { ix, _ := s.Models[0].SVX.SparseRow(1); ix[0] = 2 },
		"gamma":          func(s *model.Set) { flipBit(&s.Models[0].Kernel.Gamma) },
		"kernel kind":    func(s *model.Set) { s.Models[0].Kernel.Kind = kernel.Linear },
		"meta value":     func(s *model.Set) { s.SetMeta("budget", "65") },
		"meta boundary":  func(s *model.Set) { s.Meta = map[string]string{"budget6": "4"} },
		"models swapped": func(s *model.Set) { s.Models[0], s.Models[1] = s.Models[1], s.Models[0] },
	}
	seen := map[string]string{hashBase().Hash(): "unedited"}
	for name, edit := range edits {
		s := hashBase()
		edit(s)
		h := s.Hash()
		if other, dup := seen[h]; dup {
			t.Errorf("%s: hashes as %s does", name, other)
		}
		seen[h] = name
	}
}

// TestHashReadsNoText: the digest takes numbers by their bits and strings by
// their lengths, so NaNs of two payloads (which print alike) and a meta
// boundary moved across a space (which a line of text cannot tell apart)
// hash apart.
func TestHashReadsNoText(t *testing.T) {
	a, b := hashBase(), hashBase()
	a.Centers.DenseRow(0)[0] = math.Float64frombits(0x7ff8000000000001)
	b.Centers.DenseRow(0)[0] = math.Float64frombits(0x7ff8000000000002)
	if a.Hash() == b.Hash() {
		t.Error("two NaN payloads hash equal: the digest read their text")
	}
	a, b = hashBase(), hashBase()
	a.Meta = map[string]string{"a b": "c"}
	b.Meta = map[string]string{"a": "b c"}
	if a.Hash() == b.Hash() {
		t.Error(`meta "a b"="c" hashes as "a"="b c"`)
	}
}
