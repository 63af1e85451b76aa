package smo

import (
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/trace"
)

// TestDisabledInstrumentationZeroAllocs pins the nil-sink contract: with no
// timeline or registry attached (the default Config), the solver's
// per-iteration hot path — the fused update+scan pass, the split
// update/scan passes, and kernel-row fills behind them — must not allocate
// at all. A single allocation here would tax every un-traced run on every
// iteration.
func TestDisabledInstrumentationZeroAllocs(t *testing.T) {
	x, y := benchBlobs(512)
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}
	s, err := New(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Row(0)
	s.cache.Row(1)
	u := PairUpdate{}

	if allocs := testing.AllocsPerRun(200, func() {
		s.fusedUpdateScan(0, 1, u)
	}); allocs != 0 {
		t.Fatalf("fused pass allocated %.1f/op with instrumentation disabled, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		refUpdateF(s, 0, 1, u)
		s.LocalExtremes()
	}); allocs != 0 {
		t.Fatalf("update+scan allocated %.1f/op with instrumentation disabled, want 0", allocs)
	}
	// Force row-cache misses too: a capacity-2 cache makes every rotated
	// Row call take the fill path with its trace hook.
	small := kernel.NewRowCache(cfg.Kernel, x, 2)
	if allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 8; i++ {
			small.Row(i)
		}
	}); allocs != 0 {
		t.Fatalf("row fills allocated %.1f/op with instrumentation disabled, want 0", allocs)
	}
}

// TestInstrumentedSolveMatchesDisabled: attaching a timeline and metrics
// must observe the run, not perturb it — the trajectory stays bit-identical.
func TestInstrumentedSolveMatchesDisabled(t *testing.T) {
	x, y := benchBlobs(1024)
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), MaxIter: 200}
	want, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tl := trace.NewTimeline(1)
	cfg.Trace = tl.Rank(0)
	cfg.Metrics = trace.NewRegistry()
	got, err := Solve(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "instrumented-vs-disabled", got, want)
	if len(tl.Events()) == 0 {
		t.Fatal("instrumented run recorded no events")
	}
	if cfg.Metrics.Counter("smo_iterations_total", "").Value() == 0 {
		t.Fatal("instrumented run recorded no metrics")
	}
}

// BenchmarkSolveInstrumented is BenchmarkSolve with a live timeline and
// metrics registry attached — compare against BenchmarkSolve to price the
// enabled-instrumentation overhead (the disabled path is priced by
// TestDisabledInstrumentationZeroAllocs: exactly zero).
func BenchmarkSolveInstrumented(b *testing.B) {
	x, y := benchBlobs(4096)
	cfg := Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), MaxIter: 60}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl := trace.NewTimeline(1)
		cfg.Trace = tl.Rank(0)
		cfg.Metrics = trace.NewRegistry()
		if _, err := Solve(x, y, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
