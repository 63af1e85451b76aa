package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"casvm/internal/cluster"
	"casvm/internal/core"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestReducers(t *testing.T) {
	ten := []float64{100, 20, 30, 40, 50, 60, 70, 80, 90, 10} // unsorted on purpose
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"median of five", quantile([]float64{1, 2, 3, 4, 5}, 0.5), 3},
		{"p10 of ten interpolates between ranks 1 and 2", p10(ten), 19},
		{"quantile 1 is the maximum", quantile(sorted(ten), 1), 100},
		{"quantile of nothing", quantile(nil, 0.1), 0},
		{"median of an even count", median([]float64{4, 1, 3, 2}), 2.5},
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{"spread as the driver computes it", spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5},
		// statistics.quantiles([10, 10.5, 9.8, 10.1, 10.2], n=4) == [9.9, 10.1, 10.35]
		{"spread of five", spread([]float64{10, 10.5, 9.8, 10.1, 10.2}), 0.45 / 10.1},
	} {
		if !near(c.got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	if got := quiet([]float64{3, 1.5, 2}); got != 1.5 {
		t.Errorf("quiet: got %v, want the fastest sample 1.5", got)
	}
	// 100 ms of wall, 60 of them on the CPU, on a host at half speed: the 60
	// would have been 30, the 40 of waiting stay.
	if got := atRefSpeed(100, 60, 2*calibRefMs); !near(got, 70) {
		t.Errorf("atRefSpeed on a half-speed host: got %v, want 70", got)
	}
	if got := atRefSpeed(100, 60, calibRefMs); got != 100 {
		t.Errorf("atRefSpeed on a quiet host: got %v, want the wall time 100", got)
	}
}

func TestSelfTime(t *testing.T) {
	// op [0,100) holds stage a [10,40), which holds b [20,30), and stage c [50,90).
	spans := []span{
		{Name: "op", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 20, EndNs: 30, Parent: 1},
		{Name: "c", StartNs: 50, EndNs: 90, Parent: 0},
	}
	want := []int64{30, 20, 10, 40}
	for i, ns := range selfNs(spans) {
		if ns != want[i] {
			t.Errorf("self time of %s: got %d, want %d", spans[i].Name, ns, want[i])
		}
	}
}

// smallTrain is dissmo-dense cut down so the determinism tests take a moment.
func smallTrain(method core.Method, p int) trainSpec {
	return trainSpec{method: method, p: p, accFloor: 0.5, mix: denseMixture("small", 240, 200)}
}

func mustSetup(t *testing.T, w *workload, seed int64) instance {
	t.Helper()
	inst, err := w.setup(w, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.close)
	return inst
}

func TestSeedMakesInputs(t *testing.T) {
	mix := denseMixture("small", 240, 200)
	fp := func(seed int64) string {
		ds, err := generate(mix, seed)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(ds.X, ds.Y)
	}
	if fp(1) != fp(1) {
		t.Error("same seed, different dataset fingerprint")
	}
	if fp(1) == fp(2) {
		t.Error("different seeds, same dataset fingerprint")
	}

	// Same seed ⇒ the same exact counters, run after run; and because the
	// seed only reflects the corpus, a different seed ⇒ the same counters too,
	// on a different model.
	for _, method := range []core.Method{core.MethodDisSMO, core.MethodFCFSCA} {
		w := &workload{name: "small", block: 1, clients: 1, setup: setupTrain(smallTrain(method, 4))}
		a := mustSetup(t, w, 1).(*trainInst)
		b := mustSetup(t, w, 1).(*trainInst)
		c := mustSetup(t, w, 2).(*trainInst)
		if a.refHash != b.refHash {
			t.Errorf("%s: same seed, different model hash", method)
		}
		if a.refHash == c.refHash {
			t.Errorf("%s: different seeds, same model hash", method)
		}
		for _, o := range []*trainInst{b, c} {
			x, y := a.ref.Stats, o.ref.Stats
			if x.Iters != y.Iters || x.CommOps != y.CommOps || x.CommBytes != y.CommBytes ||
				x.TotalFlops != y.TotalFlops || x.SVs != y.SVs || a.acc != o.acc {
				t.Errorf("%s: exact counters differ between runs: %+v acc %v vs %+v acc %v", method,
					[]any{x.Iters, x.CommOps, x.CommBytes, x.TotalFlops, x.SVs}, a.acc,
					[]any{y.Iters, y.CommOps, y.CommBytes, y.TotalFlops, y.SVs}, o.acc)
			}
		}
	}
}

func TestRequestBodiesRepeat(t *testing.T) {
	w := findWorkload("serve-single")
	a := mustSetup(t, w, 3).(*serveInst)
	b := mustSetup(t, w, 3).(*serveInst)
	c := mustSetup(t, w, 4).(*serveInst)
	same := func(x, y *serveInst) bool {
		for i := range x.bodies {
			if string(x.bodies[i]) != string(y.bodies[i]) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed, different request bodies")
	}
	if same(a, c) {
		t.Error("different seeds, same request bodies")
	}
}

func TestCheckerCountsCorruption(t *testing.T) {
	w := &workload{name: "small", block: 1, clients: 1, setup: setupTrain(smallTrain(core.MethodFCFSCA, 4))}
	tr := mustSetup(t, w, 1).(*trainInst)
	out, err := tr.run(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.check(0, out); err != nil {
		t.Fatalf("clean op rejected: %v", err)
	}
	bad := out.(*core.Output)
	bad.Set.Models[0].Alpha[0] = math.Nextafter(bad.Set.Models[0].Alpha[0], 2)
	if tr.check(0, bad) == nil {
		t.Error("a model one ulp off the reference passed the hash check")
	}

	sv := mustSetup(t, findWorkload("serve-single"), 1).(*serveInst)
	raw, err := sv.run(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.check(0, raw); err != nil {
		t.Fatalf("clean response rejected: %v", err)
	}
	hits := sv.hits
	flipped, _ := json.Marshal(map[string]any{"labels": []float64{-sv.want[0][0]}})
	if sv.check(0, flipped) == nil {
		t.Error("a flipped label passed the label check")
	}
	if sv.hits != hits {
		t.Error("a failed op was scored as accurate")
	}

	good := &cluster.JobResult{ModelHash: "abc", Generations: 1}
	if err := checkJob(good, "abc"); err != nil {
		t.Errorf("clean job rejected: %v", err)
	}
	if checkJob(&cluster.JobResult{ModelHash: "abd", Generations: 1}, "abc") == nil {
		t.Error("a wrong model hash passed")
	}
}

// A failed op reaches the report: the runner counts it and the summary line
// says the run is not correct.
type failingInst struct{ instance }

func (f failingInst) check(i int, out any) error {
	if i == 3 {
		return os.ErrInvalid
	}
	return f.instance.check(i, out)
}

func TestFailedOpIsReported(t *testing.T) {
	w := &workload{name: "small", block: 1, clients: 1, items: 240, setup: setupTrain(smallTrain(core.MethodDisSMO, 2))}
	s := measure(failingInst{mustSetup(t, w, 1)}, w, 6, nil, nil, 0)
	if s.failed != 1 || s.attempted != 6+5 {
		t.Fatalf("failed %d of %d attempted, want 1 of 11", s.failed, s.attempted)
	}
	r := &result{Attempted: s.attempted, Failed: s.failed, Metrics: map[string]float64{}, defs: endToEnd}
	var line struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(r.reportLine()), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed != 1 {
		t.Errorf("report line says correct=%v failed=%d", line.Correct, line.Failed)
	}
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []jsonMetric `json:"end_to_end"`
	PerLayer  []jsonMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	match := func(kind string, file []jsonMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(defs))
		}
		for i, m := range file {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if m.Bound != defs[i].bound || (kind == "end_to_end" && (m.Better == "higher") != defs[i].higher) {
				t.Errorf("%s: bound %v better %q in BENCHMARK.json, bound %v higher=%v in the program", m.Name, m.Bound, m.Better, defs[i].bound, defs[i].higher)
			}
		}
	}
	match("end_to_end", b.EndToEnd, endToEnd)
	match("per_layer", b.PerLayer, perLayer)
}

// TestQuickAll runs all six workloads at -quick counts, untraced and traced,
// and holds the report to BENCHMARK.json: every metric present, finite and
// unit-tagged, and no failed op.
func TestQuickAll(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, traced := range []bool{false, true} {
		want := b.EndToEnd
		if traced {
			want = b.PerLayer
		}
		for _, w := range workloads {
			r, err := runWorkload(w, options{seed: 1, seconds: runSeconds, quick: true, trace: traced})
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s (traced=%v): %d of %d ops failed", w.name, traced, r.Failed, r.Attempted)
			}
			var line struct {
				Correct bool
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(r.reportLine()), &line); err != nil {
				t.Fatalf("%s: report line does not parse: %v", w.name, err)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics reported, BENCHMARK.json names %d", w.name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s: metric %s missing", w.name, m.Name)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, m.Name, *got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, m.Name, got.Unit, m.Unit)
				case !traced && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, m.Name, *got.Value)
				}
			}
			if traced {
				raw, err := os.ReadFile("out/" + w.name + ".trace.json")
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 {
					t.Errorf("%s: trace file does not parse or is empty (%v)", w.name, err)
				}
			}
		}
	}
}
