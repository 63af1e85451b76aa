package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casvm"
)

// TestRunOnTrainTrace profiles the trace of the README's
// `casvm-train -data toy -method dissmo -p 8 -trace run.trace.json` run,
// written here through the same Timeline the command writes, and holds the
// text output to the README's transcript. (`make dist-smoke` runs the
// -json form, on a merged fleet trace.)
func TestRunOnTrainTrace(t *testing.T) {
	ds, entry, err := casvm.LoadDataset("toy", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := casvm.DefaultParams(casvm.MethodDisSMO, 8)
	p.Kernel = casvm.RBF(entry.GammaOrDefault())
	p.Timeline = casvm.NewTimeline(8)
	if _, _, err := casvm.TrainDataset(ds, p); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Timeline.WriteChromeTrace(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The what-if run prints the plain run's analysis first, so it holds
	// both README transcripts with one parse of the 26 MB trace.
	var out strings.Builder
	if err := run([]string{"-what-if", "tw=0.5x", path}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	for _, want := range []string{
		"trace: " + path + "  (P=8)",
		"critical path: makespan 0.019207s ending on rank 0 (26003 steps, 11994 cross-rank hops)",
		"  compute        0.000986s    5.1%",
		"  latency        0.018003s   93.7%",
		"  bandwidth      0.000218s    1.1%",
		"  wait           0.000000s    0.0%",
		"  phase solve          0.019176s  (comp 0.000986, lat 0.017991, bw 0.000199, wait 0.000000)",
		"  phase partition      0.000027s  (comp 0.000000, lat 0.000010, bw 0.000017, wait 0.000000)",
		"top 10 attributions:",
		"what-if (tc×1, ts×1, tw×0.5):",
		"re-costed path: makespan 0.019098s ending on rank 0 (26003 steps, 11994 cross-rank hops)",
		"  speedup: 1.006x",
	} {
		found := false
		for _, l := range lines {
			found = found || l == want
		}
		if !found {
			t.Errorf("no line %q in:\n%s", want, out.String())
		}
	}

	for _, args := range [][]string{{}, {path, path}, {filepath.Join(t.TempDir(), "missing")}, {"-what-if", "tq=2", path}} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("run %q: no error", args)
		}
	}
}
