package smo

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"casvm/internal/kernel"
)

// collectCheckpoints runs Solve with a sink every k iterations and returns
// the result plus every snapshot taken (the last one marked Final).
func collectCheckpoints(t testing.TB, cfg Config, k int) (*Result, []*Checkpoint) {
	t.Helper()
	x, y := benchBlobs(512)
	var cks []*Checkpoint
	cfg.CheckpointEvery = k
	cfg.CheckpointSink = func(ck *Checkpoint) { cks = append(cks, ck) }
	res, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, cks
}

func requireSameSolution(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Iters != want.Iters {
		t.Fatalf("%s: iters %d vs %d", name, got.Iters, want.Iters)
	}
	if got.B != want.B {
		t.Fatalf("%s: bias %v vs %v", name, got.B, want.B)
	}
	if got.Converged != want.Converged {
		t.Fatalf("%s: converged %v vs %v", name, got.Converged, want.Converged)
	}
	for i := range want.Alpha {
		if got.Alpha[i] != want.Alpha[i] {
			t.Fatalf("%s: alpha[%d] %v vs %v", name, i, got.Alpha[i], want.Alpha[i])
		}
	}
}

// TestCheckpointResumeBitIdentical is the core restart guarantee: resuming
// from any mid-solve snapshot reproduces the uninterrupted trajectory
// exactly — same iterations, same multipliers bit for bit, same bias.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"first-order", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, cks := collectCheckpoints(t, tc.cfg, 25)
			if len(cks) < 2 {
				t.Fatalf("only %d checkpoints taken; need a mid-solve one", len(cks))
			}
			x, y := benchBlobs(512)
			for _, ck := range cks {
				if ck.Final {
					continue
				}
				cfg := tc.cfg
				cfg.Restore = ck
				got, err := Solve(x, y, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireSameSolution(t, tc.name, got, want)
			}
		})
	}
}

// TestRestoreTrajectoryNotFlops states what a restored solve shares with the
// uninterrupted one and what it does not. The trajectory — multipliers, bias,
// iterations — is identical from any snapshot. The flop charge is not: it
// depends on which kernel rows are resident, a snapshot carries no rows, and
// the restored solver refills the ones the interrupted solver already held.
// Work done before the interruption plus work after it is therefore at least
// the uninterrupted total, and more whenever a row is touched on both sides.
func TestRestoreTrajectoryNotFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := twoBlobs(rng, 100, 1.0, 0.9)
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}
	whole, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const at = 60
	if whole.Iters <= at {
		t.Fatalf("solve finished in %d iterations, before the interruption at %d", whole.Iters, at)
	}
	s, err := New(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s.iters < at {
		s.Step()
	}
	ck := s.Snapshot()
	pre := s.TakeFlops()

	rcfg := cfg
	rcfg.Restore = ck
	post, err := Solve(x, y, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSolution(t, "restored", post, whole)
	if pre+post.Flops < whole.Flops {
		t.Fatalf("interrupted solve charged %v + %v flops, fewer than the uninterrupted %v", pre, post.Flops, whole.Flops)
	}
	if pre+post.Flops == whole.Flops {
		t.Fatalf("restored solve charged exactly the uninterrupted %v flops: it did not start on a cold cache", whole.Flops)
	}
}

// TestCheckpointFinalFastForward: restoring a Final snapshot skips the solve
// entirely and still yields the converged solution.
func TestCheckpointFinalFastForward(t *testing.T) {
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}
	want, cks := collectCheckpoints(t, cfg, 25)
	last := cks[len(cks)-1]
	if !last.Final {
		t.Fatal("last checkpoint not marked Final")
	}
	x, y := benchBlobs(512)
	cfg.Restore = last
	got, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSolution(t, "final-fast-forward", got, want)
	// The only work left is the bias scan over f (2·m flops) — no
	// iterations, no kernel rows.
	if maxFlops := 2 * float64(len(y)); got.Flops > maxFlops {
		t.Fatalf("fast-forward performed %v flops, want ≤ %v (one bias scan)", got.Flops, maxFlops)
	}
}

// TestCheckpointEncodeRoundTrip pins the wire format: Encode→Decode is the
// identity, Bytes predicts the encoded size, and every float survives at
// full precision.
func TestCheckpointEncodeRoundTrip(t *testing.T) {
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}
	_, cks := collectCheckpoints(t, cfg, 25)
	for _, ck := range cks {
		buf := ck.Encode()
		if len(buf) != ck.Bytes() {
			t.Fatalf("Bytes()=%d but Encode produced %d", ck.Bytes(), len(buf))
		}
		got, err := DecodeCheckpoint(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iters != ck.Iters || got.Final != ck.Final {
			t.Fatalf("scalar mismatch: %+v vs %+v", got, ck)
		}
		for i := range ck.Alpha {
			if math.Float64bits(got.Alpha[i]) != math.Float64bits(ck.Alpha[i]) ||
				math.Float64bits(got.F[i]) != math.Float64bits(ck.F[i]) {
				t.Fatalf("vector mismatch at %d", i)
			}
		}
	}
}

// TestCheckpointDecodeRejectsGarbage: corrupt headers, truncations, the
// retired v1 magic and trailing bytes fail loudly instead of restoring
// nonsense — a valid checkpoint is exactly Bytes() long.
func TestCheckpointDecodeRejectsGarbage(t *testing.T) {
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}
	_, cks := collectCheckpoints(t, cfg, 25)
	buf := cks[0].Encode()
	if _, err := DecodeCheckpoint([]byte("not a checkpoint at all")); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, n := range []int{len(ckptMagic), len(ckptMagic) + 10, len(buf) / 2, len(buf) - 1} {
		if _, err := DecodeCheckpoint(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := DecodeCheckpoint(append(buf[:len(buf):len(buf)], 0)); err == nil {
		t.Fatal("one trailing byte accepted")
	}
	v1 := append([]byte("casvm-ckpt v1\n"), buf[len(ckptMagic):]...)
	if _, err := DecodeCheckpoint(v1); err == nil {
		t.Fatal("v1 magic accepted")
	}
}

// TestCheckpointRestoreValidates: a snapshot from a different problem size
// is rejected.
func TestCheckpointRestoreValidates(t *testing.T) {
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}
	_, cks := collectCheckpoints(t, cfg, 25) // m=512 snapshots
	x, y := benchBlobs(128)
	cfg.Restore = cks[0]
	if _, err := Solve(x, y, cfg, nil); err == nil {
		t.Fatal("mismatched checkpoint accepted")
	}
}

// BenchmarkSolveCheckpointed is BenchmarkSolve with snapshots every 16
// iterations — compare against BenchmarkSolve to price the checkpoint
// cadence (snapshot copies; the sink discards).
func BenchmarkSolveCheckpointed(b *testing.B) {
	x, y := benchBlobs(4096)
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), MaxIter: 60,
		Threads: runtime.GOMAXPROCS(0)}
	cfg.CheckpointEvery = 16
	cfg.CheckpointSink = func(ck *Checkpoint) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(x, y, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
