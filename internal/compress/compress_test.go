package compress_test

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"casvm/internal/compress"
	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
)

// trainFace trains the face-like dataset once per test binary; every golden
// figure below derives from this one deterministic run (DefaultParams seeds
// the solver, the registry spec seeds the data).
var faceCache struct {
	ds   *data.Dataset
	set  *model.Set
	done bool
}

func trainFace(t *testing.T) (*data.Dataset, *model.Set) {
	t.Helper()
	if faceCache.done {
		return faceCache.ds, faceCache.set
	}
	ds, entry, err := data.Load("face", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams(core.MethodRACA, 8)
	p.Kernel = kernel.RBF(entry.GammaOrDefault())
	out, err := core.Train(ds.X, ds.Y, p)
	if err != nil {
		t.Fatal(err)
	}
	faceCache.ds, faceCache.set, faceCache.done = ds, out.Set, true
	return ds, out.Set
}

const goldenBudget = 32
const goldenPrune = 0.01
const goldenSeed = 7

// TestGoldenCompressedAccuracy is the acceptance gate for the compression
// pass: centroid-budgeted + α-pruned models lose at most one point of
// accuracy on the face-like dataset against the full model, while cutting
// the support-vector count to the budget.
func TestGoldenCompressedAccuracy(t *testing.T) {
	ds, full := trainFace(t)
	small, st, err := compress.Set(full, compress.Options{
		Budget: goldenBudget, PruneFrac: goldenPrune, Seed: goldenSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	fullAcc, compAcc := compress.Annotate(small, full, ds.TestX, ds.TestY)
	t.Logf("face: full acc=%.4f (%d SVs) compressed acc=%.4f (%d SVs, ratio %.3f)",
		fullAcc, st.SVBefore, compAcc, st.SVAfter, st.Ratio())
	if fullAcc < 0.9 {
		t.Fatalf("full model accuracy %v suspiciously low; the fixture regressed", fullAcc)
	}
	if compAcc < fullAcc-0.01 {
		t.Fatalf("compressed accuracy %v lost more than 1%% vs full %v", compAcc, fullAcc)
	}
	for j, m := range small.Models {
		if m.NSV() > goldenBudget {
			t.Fatalf("model %d has %d SVs, budget %d", j, m.NSV(), goldenBudget)
		}
	}
	if st.SVAfter >= st.SVBefore {
		t.Fatalf("compression did not reduce: %d → %d SVs", st.SVBefore, st.SVAfter)
	}
	// The measured delta is embedded in the model metadata, so a serving
	// layer loading this file can surface the trade-off it is making.
	delta, err := strconv.ParseFloat(small.Meta["accuracy_delta"], 64)
	if err != nil || delta != fullAcc-compAcc {
		t.Fatalf("accuracy_delta meta %q (err %v), want %v", small.Meta["accuracy_delta"], err, fullAcc-compAcc)
	}
	if small.Meta["compress_budget"] != strconv.Itoa(goldenBudget) {
		t.Fatalf("compress_budget meta %q", small.Meta["compress_budget"])
	}
}

// TestCompressionDeterministic pins determinism: the same budget and seed
// produce a bit-identical reduced model (same ModelHash), and the hash
// survives a save/load round trip.
func TestCompressionDeterministic(t *testing.T) {
	_, full := trainFace(t)
	opts := compress.Options{Budget: goldenBudget, PruneFrac: goldenPrune, Seed: goldenSeed}
	a, _, err := compress.Set(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := compress.Set(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := core.ModelHash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := core.ModelHash(b)
	if ha != hb {
		t.Fatalf("same budget+seed produced different models: %s vs %s", ha, hb)
	}
	var buf bytes.Buffer
	if err := model.SaveSet(&buf, a); err != nil {
		t.Fatal(err)
	}
	loaded, err := model.LoadSet(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	hl, err := core.ModelHash(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if hl != ha {
		t.Fatalf("hash changed across save/load: %s vs %s", hl, ha)
	}
	// A different seed moves the K-means initialisation and must move the
	// hash (otherwise the seed is not actually plumbed through).
	other := opts
	other.Seed++
	c, _, err := compress.Set(full, other)
	if err != nil {
		t.Fatal(err)
	}
	if hc, _ := core.ModelHash(c); hc == ha {
		t.Fatal("different seed produced an identical model")
	}
}

// TestPruneOnly covers the budget-free path: pruning keeps the original
// storage kind, never empties a class, and a zero-option pass is the
// identity on SV counts.
func TestPruneOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 6
	nsv := 40
	buf := make([]float64, nsv*n)
	for i := range buf {
		buf[i] = rng.NormFloat64()
	}
	m := &model.Model{
		Kernel: kernel.RBF(0.5), SVX: la.NewDense(nsv, n, buf),
		SVY: make([]float64, nsv), Alpha: make([]float64, nsv), B: 0.1, Fallback: 1,
	}
	for i := 0; i < nsv; i++ {
		m.SVY[i] = float64(2*(i%2) - 1)
		m.Alpha[i] = 1e-6 // everything prunable...
	}
	m.Alpha[0] = 1.0 // ...except the class maxima
	m.Alpha[1] = 0.9
	s := model.Single(m, make([]float64, n))

	id, st, err := compress.Set(s, compress.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.SVAfter != nsv || id.Models[0].NSV() != nsv {
		t.Fatalf("zero options changed SV count: %+v", st)
	}

	pruned, st, err := compress.Set(s, compress.Options{PruneFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got := pruned.Models[0]
	if got.NSV() != 2 {
		t.Fatalf("want 2 survivors (one per class), got %d", got.NSV())
	}
	if got.SVY[0]+got.SVY[1] != 0 {
		t.Fatalf("want one survivor per class, got labels %v", got.SVY)
	}
	if got.SVX.Sparse() {
		t.Fatal("prune-only pass changed storage kind")
	}
	if st.PerModel[0].Clustered {
		t.Fatal("prune-only pass reported clustering")
	}
}

// TestCompressEmptyAndTinyModels covers SV-less models (single-class
// partitions) and models already under budget.
func TestCompressEmptyAndTinyModels(t *testing.T) {
	n := 4
	x := la.NewDense(3, n, []float64{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0})
	empty := model.FromSolution(x, []float64{1, 1, 1}, []float64{0, 0, 0}, 0, kernel.RBF(1))
	tiny := model.FromSolution(x, []float64{1, -1, 1}, []float64{0.5, 0.5, 0}, 0.1, kernel.RBF(1))
	s := &model.Set{Models: []*model.Model{empty, tiny}, Centers: la.Zeros(2, n)}
	out, st, err := compress.Set(s, compress.Options{Budget: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Models[0].NSV() != 0 || out.Models[0].Fallback != empty.Fallback {
		t.Fatalf("empty model mangled: nsv=%d fallback=%v", out.Models[0].NSV(), out.Models[0].Fallback)
	}
	if out.Models[1].NSV() != 2 {
		t.Fatalf("under-budget model reclustered: nsv=%d", out.Models[1].NSV())
	}
	if st.SVBefore != 2 || st.SVAfter != 2 {
		t.Fatalf("stats %+v", st)
	}
	// Invalid options are rejected, not silently clamped.
	if _, _, err := compress.Set(s, compress.Options{Budget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, _, err := compress.Set(s, compress.Options{PruneFrac: 1}); err == nil {
		t.Fatal("prune frac 1 accepted")
	}
}
