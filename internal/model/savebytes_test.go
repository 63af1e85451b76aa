package model_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
)

// saveSetFmt is the fmt-based writer model.SaveSet replaced, kept verbatim as
// the oracle of TestSaveSetBytesUnchanged: every %g and %d it prints is what
// the strconv writer must reproduce byte for byte, or every ModelHash moves.
func saveSetFmt(w io.Writer, s *model.Set) error {
	bw := bufio.NewWriter(w)
	n := s.Centers.Features()
	fmt.Fprintf(bw, "casvm-model-set v1\n")
	fmt.Fprintf(bw, "models %d\n", s.P())
	fmt.Fprintf(bw, "features %d\n", n)
	k := s.Models[0].Kernel
	fmt.Fprintf(bw, "kernel %s gamma %g coef %g scale %g degree %d\n",
		k.Kind, k.Gamma, k.Coef, k.ScaleA, k.Degree)
	if len(s.Meta) > 0 {
		keys := make([]string, 0, len(s.Meta))
		for key := range s.Meta {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			if strings.ContainsAny(key, " \n") || strings.ContainsRune(s.Meta[key], '\n') {
				return fmt.Errorf("model: meta %q unencodable (space in key or newline)", key)
			}
			fmt.Fprintf(bw, "meta %s %s\n", key, s.Meta[key])
		}
	}
	fmt.Fprintf(bw, "centers\n")
	for c := 0; c < s.Centers.Rows(); c++ {
		row := s.Centers.DenseRow(c)
		for j, v := range row {
			if j > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%g", v)
		}
		bw.WriteByte('\n')
	}
	for j, m := range s.Models {
		fmt.Fprintf(bw, "model %d nsv %d bias %g fallback %g\n", j, m.NSV(), m.B, m.Fallback)
		for i := 0; i < m.NSV(); i++ {
			fmt.Fprintf(bw, "%g %g", m.Alpha[i], m.SVY[i])
			if m.SVX.Sparse() {
				ix, vx := m.SVX.SparseRow(i)
				for t, col := range ix {
					fmt.Fprintf(bw, " %d:%g", col+1, vx[t])
				}
			} else {
				for col, v := range m.SVX.DenseRow(i) {
					if v != 0 {
						fmt.Fprintf(bw, " %d:%g", col+1, v)
					}
				}
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// edgeValues are the float64s whose %g rendering has a corner in it:
// subnormals, the exponent-notation thresholds on both sides (1e21 and 1e-5
// switch, 1e20 and 1e-4 do not), negative zero, exponents of one, two and
// three digits, the extremes, and the non-finite three.
var edgeValues = []float64{
	5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
	1e21, 1e20, 123456789012345678901, 1e-7, 1e-5, 1e-4, 0.000123,
	math.Copysign(0, -1), 0, 1, -1, 0.1, 1.0 / 3, 2.5e-9, 1e9,
	1e100, 1e-100, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// edgeSet is a hand-built two-model set with every edge value in every
// position a float is written — multiplier, label, bias, fallback, center,
// sparse entry, dense entry (explicit zeros and −0 included, which the dense
// path drops and the sparse path writes) — under a kernel with every
// parameter set, and with meta lines.
func edgeSet() *model.Set {
	n := len(edgeValues)
	k := kernel.Params{Kind: kernel.Polynomial, Gamma: 1e-7, Coef: -2.5, ScaleA: 1e21, Degree: 5}
	dense := &model.Model{Kernel: k, B: edgeValues[0], Fallback: -1,
		SVX: la.NewDense(2, n, append(append([]float64(nil), edgeValues...), make([]float64, n)...)),
		SVY: []float64{1, -1}, Alpha: []float64{1e-7, 1e21}}
	rowptr, idx := []int32{0}, []int32(nil)
	var val []float64
	for r := 0; r < n; r++ { // row r holds edge value r at column r and its negation after it
		idx, val = append(idx, int32(r)), append(val, edgeValues[r])
		if r+1 < n {
			idx, val = append(idx, int32(r+1)), append(val, -edgeValues[r])
		}
		rowptr = append(rowptr, int32(len(idx)))
	}
	sparse := &model.Model{Kernel: k, B: -1e-100, Fallback: 1,
		SVX: la.NewSparse(n, n, rowptr, idx, val), SVY: edgeValues, Alpha: edgeValues}
	centers := append(append([]float64(nil), edgeValues...), edgeValues...)
	s := &model.Set{Models: []*model.Model{dense, sparse}, Centers: la.NewDense(2, n, centers)}
	s.SetMeta("source", "edge values, with spaces in the value")
	s.SetMeta("budget", "64")
	return s
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

// TestSaveSetBytesUnchanged: the strconv writer's output is the fmt writer's,
// byte for byte, on every golden model and on the edge values — the model
// files, the serving registry and every ModelHash ever recorded depend on it.
func TestSaveSetBytesUnchanged(t *testing.T) {
	sets := goldenSets(t)
	sets["edge values"] = edgeSet()
	for name, s := range sets {
		var want, got bytes.Buffer
		if err := saveSetFmt(&want, s); err != nil {
			t.Fatal(err)
		}
		if err := model.SaveSet(&got, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.String(), want.String()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			lo := strings.LastIndexByte(w[:i], '\n') + 1
			t.Errorf("%s: SaveSet differs from the fmt writer at byte %d:\n got %.80q\nwant %.80q", name, i, g[lo:], w[lo:])
		}
		if want.Len() < 100 {
			t.Errorf("%s: oracle wrote %d bytes", name, want.Len())
		}
	}
}
