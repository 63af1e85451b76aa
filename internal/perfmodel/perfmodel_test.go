package perfmodel

import (
	"math"
	"testing"
)

func TestMachineDefaults(t *testing.T) {
	h := Hopper()
	if h.Tc <= 0 || h.Ts <= 0 || h.Tw <= 0 {
		t.Fatal("hopper params must be positive")
	}
	e := Edison()
	if e.Tc >= h.Tc {
		t.Error("edison should be faster per flop than hopper")
	}
	if h.Compute(1e9) != h.Tc*1e9 {
		t.Error("compute cost wrong")
	}
}

func TestPtoPMonotone(t *testing.T) {
	mc := Hopper()
	if mc.PtoP(0) != mc.Ts {
		t.Error("zero-byte message should cost just latency")
	}
	if mc.PtoP(-5) != mc.Ts {
		t.Error("negative bytes clamp to zero")
	}
	if mc.PtoP(4096) <= mc.PtoP(4) {
		t.Error("cost must grow with size")
	}
}

func TestOverheadGrowsSuperlinearly(t *testing.T) {
	ip := NormalizedIso(Hopper(), 100)
	m := 10000
	o2 := ip.DisSMOOverhead(m, 2)
	o4 := ip.DisSMOOverhead(m, 4)
	o8 := ip.DisSMOOverhead(m, 8)
	if o4 <= o2 || o8 <= o4 {
		t.Error("overhead must grow with P")
	}
}

// The fitted exponent of the iso-efficiency curve should reflect the P³
// communication term of eqn (10) at large P.
func TestIsoefficiencyExponent(t *testing.T) {
	ip := NormalizedIso(Hopper(), 100)
	ps := []int{256, 512, 1024, 2048, 4096}
	ws := make([]float64, len(ps))
	for i, p := range ps {
		ws[i] = ip.IsoefficiencyW(0.5, p)
	}
	b := FitExponent(ps, ws)
	if b < 2.0 || b > 3.3 {
		t.Errorf("fitted iso-efficiency exponent %.2f outside [2.0, 3.3]", b)
	}
	// Increasing at all scales.
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Error("W must increase with P")
		}
	}
}

func TestIsoefficiencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("efficiency 1.0 should panic")
		}
	}()
	NormalizedIso(Hopper(), 10).IsoefficiencyW(1.0, 8)
}

func TestTableIV(t *testing.T) {
	rows := TableIV()
	if len(rows) != 6 {
		t.Fatalf("TableIV rows=%d", len(rows))
	}
	byName := map[string]IsoBound{}
	for _, r := range rows {
		byName[r.Method] = r
	}
	if byName["Distributed-SMO"].CommExponent != 3 {
		t.Error("Dis-SMO must be Ω(P³)")
	}
	if byName["2D Mat-Vec-Mul"].CommExponent != 1 {
		t.Error("2D MVM must be Ω(P)")
	}
	if byName["CA-SVM"].CommExponent != 1 {
		t.Error("CA-SVM must be Ω(P)")
	}
}

func TestFitExponent(t *testing.T) {
	ps := []int{2, 4, 8, 16}
	ws := []float64{4, 16, 64, 256} // W = P²
	if b := FitExponent(ps, ws); math.Abs(b-2) > 1e-9 {
		t.Errorf("exponent=%v want 2", b)
	}
	if !math.IsNaN(FitExponent([]int{1}, []float64{1})) {
		t.Error("short input should be NaN")
	}
	if !math.IsNaN(FitExponent([]int{2, 2}, []float64{1, 2})) {
		t.Error("degenerate input should be NaN")
	}
}

// Table X paper check: ijcnn on 8 nodes, m=48000, n=13, s=4474 →
// Cascade ≈ 8.4 MB. (The paper's own worked example.)
func TestCascadeVolumePaperExample(t *testing.T) {
	in := VolumeInput{M: 48000, N: 13, P: 8, S: 4474}
	got := CascadeVolume(in)
	mb := float64(got) / 1e6
	if mb < 8.0 || mb > 9.0 {
		t.Errorf("cascade volume %.2f MB, paper predicts ≈8.4 MB", mb)
	}
}

func TestVolumeOrdering(t *testing.T) {
	in := VolumeInput{M: 48000, N: 13, P: 8, S: 4474, I: 30000, K: 7}
	casvm := CASVMVolume(in)
	cascade := CascadeVolume(in)
	cpsvm := CPSVMVolume(in)
	dcfilter := DCFilterVolume(in)
	dcsvm := DCSVMVolume(in)
	if casvm != 0 {
		t.Error("CA-SVM must predict zero communication")
	}
	if !(cascade < cpsvm && cpsvm <= dcfilter && dcfilter < dcsvm) {
		t.Errorf("ordering violated: cascade=%d cpsvm=%d dcfilter=%d dcsvm=%d",
			cascade, cpsvm, dcfilter, dcsvm)
	}
}

func TestVolumeByMethod(t *testing.T) {
	in := VolumeInput{M: 100, N: 10, P: 4, S: 20, I: 100, K: 5}
	for _, m := range []string{"dissmo", "cascade", "dcsvm", "dcfilter", "cpsvm", "casvm"} {
		if VolumeByMethod(m, in) < 0 {
			t.Errorf("method %q should be known", m)
		}
	}
	if VolumeByMethod("nope", in) != -1 {
		t.Error("unknown method should return -1")
	}
}
