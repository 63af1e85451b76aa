package fleet

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

// TestFleetSoak is the full-stack fleet acceptance run, gated behind
// CASVM_SOAK_CLUSTER=1 (`make soak-cluster`): it forks the real
// examples/distributed program — a cluster coordinator and four executor
// processes started with a per-iteration delay, the last with five times the
// others' — and asserts that the merged trace of its Dis-SMO job (a
// four-process TCP mesh, clock probes over loopback) parses strictly,
// satisfies causality on every cross-process edge and analyzes end-to-end
// with a telescoping critical-path decomposition whose makespan carries the
// slow executor's delay on every iteration, and that the slow executor's rank
// of its RA-CA job is flagged as a straggler.
func TestFleetSoak(t *testing.T) {
	if os.Getenv("CASVM_SOAK_CLUSTER") != "1" {
		t.Skip("set CASVM_SOAK_CLUSTER=1 (or `make soak-cluster`) to run the multi-process fleet soak")
	}
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "merged.trace")
	cmd := exec.Command("go", "run", "./examples/distributed",
		"-p", "4", "-fleet-trace", tracePath, "-straggler", "2ms")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("example failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "STRAGGLER rank 3") {
		t.Fatalf("straggler verdict on the slow executor's rank 3 missing from the output:\n%s", out)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x, err := trace.ReadTraceExtra(f)
	if err != nil {
		t.Fatalf("merged trace does not parse strictly: %v", err)
	}
	if x.P != 4 {
		t.Fatalf("merged trace P = %d, want 4", x.P)
	}
	if x.Timebase != trace.TimebaseWall {
		t.Fatalf("timebase %q, want %q", x.Timebase, trace.TimebaseWall)
	}
	if len(x.ClockOffsetsNs) != 4 {
		t.Fatalf("clock offsets %v, want 4 entries", x.ClockOffsetsNs)
	}
	if len(x.Edges) == 0 {
		t.Fatal("merged trace has no cross-process flow edges")
	}
	for _, e := range x.Edges {
		if e.RecvVirtSec < e.SendVirtSec || e.RecvWallNs < e.SendWallNs {
			t.Fatalf("causality violated after rebase: %+v", e)
		}
	}
	a, err := critpath.Analyze(critpath.FromExtra(x))
	if err != nil {
		t.Fatal(err)
	}
	// Every Dis-SMO iteration's reduction waits on the slowed executor, which
	// sleeps 2.5 ms an iteration, so that sleep dominates the makespan.
	m := regexp.MustCompile(`dissmo +P=4: .*, (\d+) iterations`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no Dis-SMO result line in the output:\n%s", out)
	}
	iters, _ := strconv.Atoi(string(m[1]))
	if floor := float64(iters) * 2e-3; iters == 0 || a.MakespanSec < floor {
		t.Fatalf("makespan %.3fs, want ≥ %d iterations × 2 ms = %.3fs (the slowed rank not on the path?)",
			a.MakespanSec, iters, floor)
	}
	if diff := math.Abs(a.Sum() - a.MakespanSec); diff > 1e-9*a.MakespanSec {
		t.Fatalf("decomposition %.9fs != makespan %.9fs", a.Sum(), a.MakespanSec)
	}
}
