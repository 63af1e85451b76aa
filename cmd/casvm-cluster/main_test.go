package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"casvm"
	"casvm/internal/cluster"
	"casvm/internal/trace"
)

// syncBuffer is a stdout the test reads while run writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// after waits for the line of w that starts with prefix and returns the
// rest of it, up to the first space.
func after(t *testing.T, w *syncBuffer, prefix string) string {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, rest, ok := strings.Cut(w.String(), prefix); ok {
			if v, _, ok := strings.Cut(rest, "\n"); ok {
				v, _, _ = strings.Cut(v, " ")
				return v
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q line in:\n%s", prefix, w.String())
		}
	}
}

// TestRunCoordinatorAndExecutors runs the README's cluster: a coordinator
// with telemetry on loopback and two -join executors, each a run of this
// command. It submits the job of the README's `casvm-train -cluster … -data
// toy -method ra-ca -p 2` (the spec that command builds from its defaults;
// casvm-train's TestRunClusterSubmit runs the command itself), and the
// job's model hash must be the one the same training run produces in
// process. With -fleet-trace, a Dis-SMO job's merged trace lands in the
// directory and the RA-CA job, whose ranks ship none, leaves no file.
// Cancelling the runs' contexts shuts all three down cleanly.
func TestRunCoordinatorAndExecutors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var coordOut syncBuffer
	coordDone := make(chan error, 1)
	traces := t.TempDir()
	go func() {
		coordDone <- run(ctx, []string{"-listen", "127.0.0.1:0", "-serve", "127.0.0.1:0", "-fleet-trace", traces}, &coordOut)
	}()
	addr := after(t, &coordOut, "coordinator listening on ")
	health := after(t, &coordOut, "telemetry at ") + "/healthz"

	execCtx, leave := context.WithCancel(ctx)
	defer leave()
	var execOut [2]syncBuffer
	execDone := make(chan error, len(execOut))
	for i := range execOut {
		go func(w *syncBuffer) { execDone <- run(execCtx, []string{"-join", addr}, w) }(&execOut[i])
	}
	for deadline := time.Now().Add(10 * time.Second); workers(t, health) < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("executors never registered")
		}
	}

	ds, entry, err := casvm.LoadDataset("toy", 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.JobSpec{ID: "train", Dataset: "toy", Scale: 1, Method: "ra-ca", P: 2, C: 1, Tol: 1e-3, Seed: 1}
	res, err := cluster.SubmitAndWait(addr, spec, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := casvm.DefaultParams(casvm.MethodRACA, 2)
	p.Kernel = casvm.RBF(entry.GammaOrDefault())
	ref, err := casvm.Train(ds.X, ds.Y, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 1 || res.FinalP != 2 || res.ModelHash != ref.Set.Hash() {
		t.Errorf("job: %d generations at P=%d, hash %s; want 1 at P=2, hash %s",
			res.Generations, res.FinalP, res.ModelHash, ref.Set.Hash())
	}
	mesh, err := cluster.SubmitAndWait(addr, cluster.JobSpec{ID: "mesh", Dataset: "toy", Scale: 1, Method: "dissmo", P: 2, Seed: 1}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	meshTrace := filepath.Join(traces, mesh.ID+".trace")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if f, err := os.Open(meshTrace); err == nil {
			x, err := trace.ReadTraceExtra(f)
			f.Close()
			if err == nil && x.P == 2 && x.Timebase == trace.TimebaseWall {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no merged trace of the Dis-SMO job at %s", meshTrace)
		}
	}
	if _, err := os.Stat(filepath.Join(traces, res.ID+".trace")); !os.IsNotExist(err) {
		t.Errorf("the RA-CA job, whose ranks ship no spans, left a trace file: %v", err)
	}

	leave()
	for range execOut {
		if err := <-execDone; err != nil {
			t.Errorf("executor: %v", err)
		}
	}
	for i := range execOut {
		if !strings.HasSuffix(execOut[i].String(), "lease ended, leaving cleanly\n") {
			t.Errorf("executor %d printed:\n%s", i, execOut[i].String())
		}
	}
	cancel()
	if err := <-coordDone; err != nil {
		t.Errorf("coordinator: %v", err)
	}
	if !strings.HasSuffix(coordOut.String(), "shutting down\n") {
		t.Errorf("coordinator printed:\n%s", coordOut.String())
	}

	if err := run(context.Background(), []string{"-nosuch"}, &strings.Builder{}); err == nil {
		t.Error("an unknown flag ran")
	}
}

// workers reads the coordinator's registered worker count from /healthz.
func workers(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Workers int `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Workers
}
