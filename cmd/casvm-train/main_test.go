package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"casvm"
	"casvm/internal/cluster"
)

// TestRunCommands runs the README's casvm-train command lines in-process,
// each with its model written into the test's directory, and holds each to
// the deterministic lines of the README's transcript: every line but the
// wall time and, for a run that crashed, the communication count. That
// count includes the messages the lost generation sent before the crash
// stopped it, which vary with scheduling (9,740–9,742 operations here).
func TestRunCommands(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	chaosLines := []string{
		"method=dissmo m=600 n=22 P=8",
		"iterations=670 SVs=238",
		"virtual time: total=0.5095s (init 0.5033s, train 0.0063s)",
		"recovery: 1 restart(s), lost ranks [5], 0.5032s of virtual time (policy respawn)",
		"held-out accuracy: 95.00%",
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"chaos", []string{"-data", "ijcnn", "-scale", "0.1", "-method", "dissmo", "-p", "8",
			"-chaos", "7", "-recover", "respawn", "-report", at("chaos.json"), "-model", at("chaos.model")},
			append([]string{"chaos schedule: seed=7 events=4 policy=respawn"}, chaosLines...)},
		// The report alone replays the crash, the recovery and the model.
		{"replay", []string{"-data", "ijcnn", "-scale", "0.1", "-method", "dissmo", "-p", "8",
			"-replay-faults", at("chaos.json"), "-model", at("replay.model")},
			append([]string{"replaying fault schedule: seed=7 events=4 policy=respawn"}, chaosLines...)},
		{"report", []string{"-data", "toy", "-method", "ra-ca", "-p", "8", "-report", at("run.json"), "-model", at("toy.model")},
			[]string{"method=ra-ca m=1600 n=16 P=8", "communication: 0 bytes in 0 operations", "report written to " + at("run.json")}},
		{"trace", []string{"-data", "toy", "-method", "dissmo", "-p", "8", "-trace", at("run.trace.json"), "-model", at("dissmo.model")},
			[]string{"iterations=1998 SVs=1089", "communication: 2964933 bytes in 28000 operations", "held-out accuracy: 89.00%"}},
		{"webspam", []string{"-data", "webspam", "-method", "ra-ca", "-p", "8", "-model", at("out.model")},
			[]string{"method=ra-ca m=6000 n=2048 P=8", "iterations=1387 SVs=4889", "held-out accuracy: 94.67%",
				"model written to " + at("out.model")}},
		{"face", []string{"-data", "face", "-method", "ra-ca", "-p", "8", "-model", at("full.model")},
			[]string{"method=ra-ca m=4000 n=64 P=8", "iterations=251 SVs=1058", "held-out accuracy: 94.80%"}},
		{"list", []string{"-list"}, []string{"   ra-ca", "   webspam"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(out.String(), "\n")
			for _, want := range tc.want {
				if !hasLine(lines, want) {
					t.Errorf("no line %q in:\n%s", want, out.String())
				}
			}
		})
	}
	chaos, err := os.ReadFile(at("chaos.model"))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := os.ReadFile(at("replay.model"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chaos, replay) {
		t.Error("the replayed run wrote a different model file")
	}

	for _, args := range [][]string{
		{"-method", "ra-ca"},                           // neither -file nor -data
		{"-cluster", "127.0.0.1:1", "-file", "x.svm"},  // a cluster job needs -data
		{"-data", "toy", "-method", "no-such-method"},  // unknown method
		{"-data", "toy", "-model", at("x"), "-nosuch"}, // unknown flag
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("run %q: no error", args)
		}
	}
}

// TestRunServeLinger runs the README's live-telemetry command: after
// training, /report serves the final report and /events streams the run's
// convergence samples until an interrupt arrives.
func TestRunServeLinger(t *testing.T) {
	var stdout syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-data", "toy", "-method", "ra-ca", "-p", "8", "-serve", "127.0.0.1:0",
			"-serve-linger", "-model", filepath.Join(t.TempDir(), "m.model")}, &stdout)
	}()
	var url string
	for deadline := time.Now().Add(30 * time.Second); url == ""; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no final-report line in:\n%s", stdout.String())
		}
		if _, rest, ok := strings.Cut(stdout.String(), "telemetry: final report live at "); ok {
			url, _, _ = strings.Cut(rest, " ")
		}
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Method    string `json:"method"`
		ModelHash string `json:"model_hash"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil || rep.Method != "ra-ca" || rep.ModelHash == "" {
		t.Errorf("/report: %+v, %v", rep, err)
	}
	// /events replays the samples still in the ring, so one frame arrives
	// after training too.
	events := strings.TrimSuffix(url, "/report") + "/events"
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	frame := ""
	for sc := bufio.NewScanner(resp.Body); frame == "" && sc.Scan(); {
		if f, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			frame = f
		}
	}
	resp.Body.Close()
	if !strings.Contains(frame, "{") {
		t.Errorf("/events streamed no data frame (got %q)", frame)
	}
	// run has registered for the interrupt before it printed the line.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after the interrupt")
	}
}

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

// TestRunClusterSubmit submits the README's two thin-client commands to a
// coordinator with two executors, and each job's model hash must be the one
// the same training run produces in process.
func TestRunClusterSubmit(t *testing.T) {
	c, err := cluster.New("127.0.0.1:0", cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cluster.RunExecutor(ctx, c.Addr(), cluster.ExecutorOptions{})
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(c.Workers()) < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("executors never registered")
		}
	}

	ds, entry, err := casvm.LoadDataset("toy", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		method casvm.Method
		want   []string
	}{
		{casvm.MethodRACA, []string{"iterations=1041 SVs=1256 accuracy=87.25%"}},
		{casvm.MethodDisSMO, []string{"iterations=1998 SVs=1089 accuracy=89.00%",
			"communication: 497687 bytes in 4000 messages"}},
	} {
		var out strings.Builder
		if err := run([]string{"-cluster", c.Addr(), "-data", "toy", "-method", string(tc.method), "-p", "2"}, &out); err != nil {
			t.Fatal(err)
		}
		p := casvm.DefaultParams(tc.method, 2)
		p.Kernel = casvm.RBF(entry.GammaOrDefault())
		ref, err := casvm.Train(ds.X, ds.Y, p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(out.String(), "\n")
		for _, want := range append(tc.want,
			fmt.Sprintf("job train-%d done: method=%s P=2 finalP=2 generations=1", i+1, tc.method),
			"model hash: "+ref.Set.Hash()+" (model stays with the coordinator)") {
			if !hasLine(lines, want) {
				t.Errorf("no line %q in:\n%s", want, out.String())
			}
		}
	}
}

func hasLine(lines []string, want string) bool {
	for _, l := range lines {
		if l == want {
			return true
		}
	}
	return false
}
