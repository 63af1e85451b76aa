package data

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"casvm/internal/la"
)

func TestReadLIBSVMBasic(t *testing.T) {
	in := `+1 1:0.5 3:2.0
-1 2:1 # comment
+1
`
	x, y, err := ReadLIBSVM(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 3 || x.Features() != 3 {
		t.Fatalf("dims %d×%d", x.Rows(), x.Features())
	}
	if y[0] != 1 || y[1] != -1 || y[2] != 1 {
		t.Fatalf("labels %v", y)
	}
	if x.At(0, 0) != 0.5 || x.At(0, 2) != 2 || x.At(1, 1) != 1 {
		t.Fatal("values wrong")
	}
	if x.NNZ() != 3 {
		t.Fatalf("nnz=%d", x.NNZ())
	}
}

func TestReadLIBSVMMinFeatures(t *testing.T) {
	x, _, err := ReadLIBSVM(strings.NewReader("1 1:1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if x.Features() != 10 {
		t.Fatalf("features=%d want 10", x.Features())
	}
}

func TestReadLIBSVMUnsortedIndices(t *testing.T) {
	x, _, err := ReadLIBSVM(strings.NewReader("1 5:5 2:2 9:9\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(0, 1) != 2 || x.At(0, 4) != 5 || x.At(0, 8) != 9 {
		t.Fatal("unsorted indices mishandled")
	}
}

func TestReadLIBSVMErrors(t *testing.T) {
	cases := []string{
		"abc 1:1\n",   // bad label
		"1 x:1\n",     // bad index
		"1 0:1\n",     // index < 1
		"1 2:zz\n",    // bad value
		"1 2\n",       // missing colon
		"1 2:1 2:3\n", // duplicate index
	}
	for _, in := range cases {
		if _, _, err := ReadLIBSVM(strings.NewReader(in), 0); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, n := 20, 7
	dataBuf := make([]float64, m*n)
	y := make([]float64, m)
	for i := range dataBuf {
		if rng.Float64() < 0.5 {
			dataBuf[i] = math.Round(rng.NormFloat64()*1000) / 1000
		}
	}
	for i := range y {
		if rng.Float64() < 0.5 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	x := la.NewDense(m, n, dataBuf)
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, x, y); err != nil {
		t.Fatal(err)
	}
	x2, y2, err := ReadLIBSVM(&buf, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		if y[i] != y2[i] {
			t.Fatalf("label %d", i)
		}
		for j := 0; j < n; j++ {
			if math.Abs(x.At(i, j)-x2.At(i, j)) > 1e-9 {
				t.Fatalf("value %d,%d: %v vs %v", i, j, x.At(i, j), x2.At(i, j))
			}
		}
	}
}

func TestWriteLIBSVMLengthMismatch(t *testing.T) {
	x := la.NewDense(2, 1, []float64{1, 2})
	if err := WriteLIBSVM(&bytes.Buffer{}, x, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestGenerateDense(t *testing.T) {
	d, err := Generate(MixtureSpec{
		Name: "t", Train: 500, Test: 100, Features: 10, Clusters: 4,
		Separation: 5, Noise: 1, PosFrac: []float64{0.3}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != 500 || d.TestX.Rows() != 100 || d.Features() != 10 {
		t.Fatalf("dims: m=%d test=%d n=%d", d.M(), d.TestX.Rows(), d.Features())
	}
	// Positive fraction close to requested.
	if pf := d.PosFrac(); math.Abs(pf-0.3) > 0.08 {
		t.Errorf("PosFrac=%v want ≈0.3", pf)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := MixtureSpec{Name: "t", Train: 50, Test: 10, Features: 5, Clusters: 2,
		Separation: 3, Noise: 1, PosFrac: []float64{0.5}, Seed: 9}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !la.Equal(a.X, b.X, 0) {
		t.Error("same seed must give same data")
	}
	spec.Seed = 10
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if la.Equal(a.X, c.X, 0) {
		t.Error("different seed should give different data")
	}
}

func TestGenerateSparse(t *testing.T) {
	d, err := Generate(MixtureSpec{
		Name: "sp", Train: 200, Test: 50, Features: 500, Clusters: 3,
		Separation: 6, Noise: 1, PosFrac: []float64{0.5},
		Sparse: true, Density: 0.05, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.X.Sparse() {
		t.Fatal("should be sparse")
	}
	perRow := float64(d.X.NNZ()) / float64(d.M())
	if perRow < 10 || perRow > 50 {
		t.Errorf("nnz/row=%v want ≈25", perRow)
	}
}

func TestGeneratePerClusterPosFrac(t *testing.T) {
	d, err := Generate(MixtureSpec{
		Name: "imb", Train: 4000, Test: 0, Features: 8, Clusters: 2,
		Separation: 10, Noise: 1, PosFrac: []float64{0.5, 0.01}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Global fraction should land between the two cluster fractions,
	// near their mean.
	if pf := d.PosFrac(); pf < 0.15 || pf > 0.40 {
		t.Errorf("PosFrac=%v want ≈0.25", pf)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []MixtureSpec{
		{Train: 0, Features: 1, Clusters: 1, PosFrac: []float64{0.5}},
		{Train: 10, Features: 5, Clusters: 3, PosFrac: []float64{0.5, 0.5}},
		{Train: 10, Features: 5, Clusters: 1, PosFrac: []float64{1.5}},
		{Train: 10, Features: 5, Clusters: 1, PosFrac: []float64{0.5}, Sparse: true, Density: 0},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %d should fail", i)
		}
	}
}

func TestNormQuantile(t *testing.T) {
	cases := map[float64]float64{
		0.5:   0,
		0.975: 1.959964,
		0.025: -1.959964,
		0.84:  0.994458,
	}
	for p, want := range cases {
		if got := normQuantile(p); math.Abs(got-want) > 1e-4 {
			t.Errorf("normQuantile(%v)=%v want %v", p, got, want)
		}
	}
	if !math.IsInf(normQuantile(0), -1) || !math.IsInf(normQuantile(1), 1) {
		t.Error("edge quantiles must be ±Inf")
	}
}

func TestRegistryAllGenerate(t *testing.T) {
	for _, name := range Names() {
		d, e, err := Load(name, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.GammaOrDefault() <= 0 {
			t.Errorf("%s: gamma %v", name, e.GammaOrDefault())
		}
		if d.TestX == nil {
			t.Errorf("%s: no test split", name)
		}
	}
}

func TestRegistryFaceImbalance(t *testing.T) {
	d, _, err := Load("face", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pf := d.PosFrac(); pf < 0.02 || pf > 0.08 {
		t.Errorf("face PosFrac=%v want ≈0.035–0.05", pf)
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, _, err := Load("nonesuch", 1); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestBinarize(t *testing.T) {
	y := Binarize([]float64{0, 1, 2, -3}, 0.5)
	want := []float64{-1, 1, 1, -1}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("got %v", y)
		}
	}
}

func TestDatasetValidate(t *testing.T) {
	x := la.NewDense(2, 2, []float64{1, 2, 3, 4})
	good := &Dataset{Name: "g", X: x, Y: []float64{1, -1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Dataset{
		{Name: "nilx"},
		{Name: "len", X: x, Y: []float64{1}},
		{Name: "lab", X: x, Y: []float64{1, 0.5}},
		{Name: "testlen", X: x, Y: []float64{1, -1},
			TestX: la.NewDense(1, 2, []float64{1, 2}), TestY: nil},
		{Name: "testdim", X: x, Y: []float64{1, -1},
			TestX: la.NewDense(1, 3, []float64{1, 2, 3}), TestY: []float64{1}},
	}
	for _, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("%s should fail validation", d.Name)
		}
	}
}

func TestWriteLIBSVMSparse(t *testing.T) {
	x := la.NewSparse(2, 4, []int32{0, 2, 3}, []int32{0, 3, 1}, []float64{1.5, -2, 7})
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, x, []float64{1, -1}); err != nil {
		t.Fatal(err)
	}
	back, y, err := ReadLIBSVM(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 1 || y[1] != -1 {
		t.Fatal("labels")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			if back.At(i, j) != x.At(i, j) {
				t.Fatalf("value %d,%d", i, j)
			}
		}
	}
}
