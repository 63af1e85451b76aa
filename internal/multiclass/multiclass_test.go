package multiclass

import (
	"testing"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/la"
)

func fourClassSet(t *testing.T) (trainX *la.Matrix, trainY []float64, testX *la.Matrix, testY []float64) {
	t.Helper()
	trainX, trainY, testX, testY, err := data.GenerateMulticlass(data.MixtureSpec{
		Name: "mc", Train: 600, Test: 150, Features: 6, Clusters: 4,
		Separation: 8, Noise: 1, LabelNoise: 0.01, Seed: 5,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return
}

func mcParams(m core.Method, p int) core.Params {
	pr := core.DefaultParams(m, p)
	pr.Kernel = kernel.RBF(1.0 / 12)
	return pr
}

func TestOneVsRest(t *testing.T) {
	trainX, trainY, testX, testY := fourClassSet(t)
	m, err := Train(trainX, trainY, mcParams(core.MethodRACA, 4), OneVsRest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sets) != 4 {
		t.Fatalf("machines=%d want 4", len(m.Sets))
	}
	if acc := m.Accuracy(testX, testY); acc < 0.92 {
		t.Errorf("OVR accuracy %.3f", acc)
	}
	for _, p := range m.PredictAll(testX) {
		if p < 0 || p > 3 {
			t.Fatalf("prediction %v outside class range", p)
		}
	}
}

// TestPredictAllMatchesOneRowBlocks holds both schemes' block prediction to
// the same rows classified one at a time.
func TestPredictAllMatchesOneRowBlocks(t *testing.T) {
	trainX, trainY, testX, _ := fourClassSet(t)
	for _, scheme := range []Scheme{OneVsRest, OneVsOne} {
		m, err := Train(trainX, trainY, mcParams(core.MethodRACA, 2), scheme)
		if err != nil {
			t.Fatal(err)
		}
		for i, label := range m.PredictAll(testX) {
			if one := m.PredictAll(testX.Subset([]int{i}))[0]; one != label {
				t.Fatalf("scheme %d row %d: block label %v, alone %v", scheme, i, label, one)
			}
		}
	}
}

func TestOneVsOne(t *testing.T) {
	trainX, trainY, testX, testY := fourClassSet(t)
	m, err := Train(trainX, trainY, mcParams(core.MethodCPSVM, 4), OneVsOne)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sets) != 6 { // 4·3/2
		t.Fatalf("machines=%d want 6", len(m.Sets))
	}
	if acc := m.Accuracy(testX, testY); acc < 0.92 {
		t.Errorf("OVO accuracy %.3f", acc)
	}
}

func TestSchemesAgreeOnEasyData(t *testing.T) {
	trainX, trainY, testX, _ := fourClassSet(t)
	ovr, err := Train(trainX, trainY, mcParams(core.MethodRACA, 2), OneVsRest)
	if err != nil {
		t.Fatal(err)
	}
	ovo, err := Train(trainX, trainY, mcParams(core.MethodRACA, 2), OneVsOne)
	if err != nil {
		t.Fatal(err)
	}
	agree, ovoLabels := 0, ovo.PredictAll(testX)
	for i, label := range ovr.PredictAll(testX) {
		if label == ovoLabels[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(testX.Rows()); frac < 0.9 {
		t.Errorf("schemes agree on only %.2f of easy data", frac)
	}
}

func TestBinaryLabelsWork(t *testing.T) {
	// Two classes degenerate to a single machine pair / two OVR machines.
	trainX, trainY, _, _, err := data.GenerateMulticlass(data.MixtureSpec{
		Name: "bin", Train: 120, Test: 0, Features: 4, Clusters: 2,
		Separation: 8, Noise: 1, Seed: 6,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(trainX, trainY, mcParams(core.MethodRACA, 2), OneVsOne)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sets) != 1 {
		t.Fatalf("machines=%d want 1", len(m.Sets))
	}
	if acc := m.Accuracy(trainX, trainY); acc < 0.95 {
		t.Errorf("binary OVO train accuracy %.3f", acc)
	}
}

func TestValidation(t *testing.T) {
	x := la.NewDense(4, 1, []float64{1, 2, 3, 4})
	if _, err := Train(nil, nil, mcParams(core.MethodRACA, 1), OneVsRest); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := Train(x, []float64{1, 1, 1, 1}, mcParams(core.MethodRACA, 1), OneVsRest); err == nil {
		t.Error("single class should fail")
	}
	if _, err := Train(x, []float64{0, 1, 0, 1}, mcParams(core.MethodRACA, 1), Scheme(9)); err == nil {
		t.Error("bad scheme should fail")
	}
}

func TestGenerateMulticlassValidation(t *testing.T) {
	spec := data.MixtureSpec{Name: "x", Train: 10, Features: 2, Clusters: 2, Separation: 1, Noise: 1, Seed: 1}
	if _, _, _, _, err := data.GenerateMulticlass(spec, 1); err == nil {
		t.Error("1 class should fail")
	}
	if _, _, _, _, err := data.GenerateMulticlass(spec, 3); err == nil {
		t.Error("classes > clusters should fail")
	}
	bad := spec
	bad.Train = 0
	if _, _, _, _, err := data.GenerateMulticlass(bad, 2); err == nil {
		t.Error("empty train should fail")
	}
}
