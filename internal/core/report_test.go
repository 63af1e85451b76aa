package core

import (
	"bytes"
	"testing"

	"casvm/internal/trace"
)

// isHexDigest reports whether s looks like a SHA-256 hex digest.
func isHexDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func TestBuildReportFullRun(t *testing.T) {
	d := testSet(t, 480)
	pr := paramsFor(MethodRACA, 4, d)
	pr.Timeline = trace.NewTimeline(4)
	pr.Metrics = trace.NewRegistry()
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	acc := out.Set.Accuracy(d.TestX, d.TestY)
	rep, err := BuildReport(out, pr, "core-test", acc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != string(MethodRACA) || rep.Dataset != "core-test" || rep.P != 4 {
		t.Fatalf("identity fields: method=%q dataset=%q p=%d", rep.Method, rep.Dataset, rep.P)
	}
	if !isHexDigest(rep.ModelHash) {
		t.Fatalf("ModelHash %q is not a sha256 hex digest", rep.ModelHash)
	}
	if rep.Iters <= 0 || rep.SVs <= 0 || rep.TotalFlops <= 0 {
		t.Fatalf("outcome fields: iters=%d svs=%d flops=%v", rep.Iters, rep.SVs, rep.TotalFlops)
	}
	if rep.Accuracy != acc {
		t.Fatalf("accuracy %v, want %v", rep.Accuracy, acc)
	}
	if rep.Solver.Kernel != pr.Kernel.Kind.String() || rep.Solver.Gamma != pr.Kernel.Gamma {
		t.Fatalf("solver info: %+v", rep.Solver)
	}
	if rep.Machine.TcSec != pr.Machine.Tc {
		t.Fatalf("machine tc %v, want %v", rep.Machine.TcSec, pr.Machine.Tc)
	}
	if len(rep.CommMatrix) != 4 {
		t.Fatalf("comm matrix has %d rows, want 4", len(rep.CommMatrix))
	}
	if len(rep.Phases) == 0 || rep.TimelineEvents == 0 {
		t.Fatalf("timeline not attached: %d phases, %d events", len(rep.Phases), rep.TimelineEvents)
	}
	if len(rep.Metrics) == 0 {
		t.Fatal("metrics not attached")
	}

	// The report must survive its own strict serialization.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ModelHash != rep.ModelHash || back.Iters != rep.Iters {
		t.Fatal("round trip changed the report")
	}
}

// TestModelHashDeterministic: same run twice, same fingerprint.
func TestModelHashDeterministic(t *testing.T) {
	d := testSet(t, 240)
	pr := paramsFor(MethodFCFSCA, 4, d)
	a, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := ModelHash(a.Set)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := ModelHash(b.Set)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("hash drift across identical runs: %s vs %s", ha, hb)
	}
}
