package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"casvm/internal/data"
	"casvm/internal/faults"
	"casvm/internal/kernel"
	"casvm/internal/mpi"
	"casvm/internal/trace"
)

func TestBlockStartMatchesEvenBlocks(t *testing.T) {
	for _, m := range []int{1, 7, 8, 9, 300, 641} {
		for p := 1; p <= 9 && p <= m; p++ {
			blocks := evenBlocks(m, p)
			for r, rows := range blocks {
				if got := blockStart(m, p, r); got != rows[0] {
					t.Fatalf("m=%d p=%d r=%d: start %d, want %d", m, p, r, got, rows[0])
				}
			}
			if got := blockStart(m, p, p); got != m {
				t.Fatalf("m=%d p=%d: end %d", m, p, got)
			}
		}
	}
}

// TestDisSMOCacheCapacityInvariant: the replicated column cache changes
// what is recomputed and what rides the wire, never what is computed. The
// model, the iteration count and the SV count are the same at the smallest
// legal capacity, a small one and one that never evicts, at every world
// width including non-powers of two; every iteration looks both winners up
// exactly once; and a cache that never evicts pays for strictly fewer flops
// than one that always does.
func TestDisSMOCacheCapacityInvariant(t *testing.T) {
	d := testSet(t, 300)
	m := d.X.Rows()
	var refHash string
	var refIters, refSVs int
	for _, p := range []int{1, 2, 3, 4, 8} {
		flops := map[int]float64{}
		for _, capacity := range []int{2, 8, m} {
			pr := paramsFor(MethodDisSMO, p, d)
			pr.colCacheRows = capacity
			out, err := Train(d.X, d.Y, pr)
			if err != nil {
				t.Fatalf("p=%d cap=%d: %v", p, capacity, err)
			}
			st := out.Stats
			h := hashOf(t, out)
			if refHash == "" {
				refHash, refIters, refSVs = h, st.Iters, st.SVs
			}
			if h != refHash || st.Iters != refIters || st.SVs != refSVs {
				t.Errorf("p=%d cap=%d: hash %s iters %d svs %d, want %s %d %d",
					p, capacity, h, st.Iters, st.SVs, refHash, refIters, refSVs)
			}
			if got := st.ColCacheHits + st.ColCacheMisses; got != int64(2*st.Iters) {
				t.Errorf("p=%d cap=%d: %d hits + %d misses != 2·%d iterations",
					p, capacity, st.ColCacheHits, st.ColCacheMisses, st.Iters)
			}
			if wantMsgs := int64(2*(p-1)*(st.Iters+1) + 2*(p-1)); st.CommOps != wantMsgs {
				t.Errorf("p=%d cap=%d: %d messages, want %d (one allreduce per round + scatter + gather)",
					p, capacity, st.CommOps, wantMsgs)
			}
			flops[capacity] = st.TotalFlops
		}
		if !(flops[m] < flops[2]) {
			t.Errorf("p=%d: flops %v at capacity m not below %v at capacity 2", p, flops[m], flops[2])
		}
	}
	// The trajectory is also the one the four-collective loop took: the
	// hash below was recorded from it before the rewrite.
	if want := "aa03a395bce7ff16550b99fa315232a31202827b19372291fd5ccd5a0fe9233b"; refHash != want || refIters != 969 {
		t.Errorf("hash %s iters %d, want %s 969", refHash, refIters, want)
	}
}

// TestDisSMOPreRewriteHashes pins Dis-SMO on the storage and kernel paths
// the golden end-to-end run does not reach — CSR rows under the Gaussian
// kernel (norms-identity distances, sparse wire rows), and a dense linear
// kernel with class weights (non-unit diagonal, iteration cap) — to the
// values the uncached four-collective loop produced, recorded before it was
// replaced.
func TestDisSMOPreRewriteHashes(t *testing.T) {
	sparse, err := data.Generate(data.MixtureSpec{
		Name: "core-sparse", Train: 360, Test: 90, Features: 400, Clusters: 4,
		Separation: 7, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02,
		Margin: 1.0, Sparse: true, Density: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.X.Sparse() {
		t.Fatal("generator returned dense rows")
	}
	dense := testSet(t, 300)

	rbf := DefaultParams(MethodDisSMO, 3)
	rbf.Kernel = kernel.RBF(1.0 / (2 * 400 * 0.05))
	lin := paramsFor(MethodDisSMO, 3, dense)
	lin.Kernel = kernel.Params{Kind: kernel.Linear}
	lin.PosWeight = 2
	lin.MaxIter = 3000

	for _, tc := range []struct {
		name  string
		d     *data.Dataset
		pr    Params
		hash  string
		iters int
		svs   int
	}{
		{"sparse-rbf", sparse, rbf, "d5f757fc8eac58db7286d84e6ceba9f26fba0f4486cfe6c9ac72064612bfdd48", 1056, 282},
		{"dense-linear-weighted", dense, lin, "306b7873efb6982fececd0fc6f356b21089a38468548d30e677c395790830a29", 3000, 155},
	} {
		out, err := Train(tc.d.X, tc.d.Y, tc.pr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h := hashOf(t, out); h != tc.hash || out.Stats.Iters != tc.iters || out.Stats.SVs != tc.svs {
			t.Errorf("%s: hash %s iters %d svs %d, want %s %d %d",
				tc.name, h, out.Stats.Iters, out.Stats.SVs, tc.hash, tc.iters, tc.svs)
		}
	}
}

// pairTamper is a transport hook that rewrites the first pair-exchange
// payload sent by rank src for which mutate returns a replacement.
type pairTamper struct {
	src    int
	mutate func(high, low candidate, data []byte) []byte

	mu   sync.Mutex
	done bool
}

func (h *pairTamper) Intercept(src, _, _ int, data []byte) mpi.Verdict {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done || src != h.src {
		return mpi.Verdict{}
	}
	high, low, err := decodePair(data)
	if err != nil {
		return mpi.Verdict{} // the scatter, not the exchange
	}
	out := h.mutate(high, low, data)
	if out == nil {
		return mpi.Verdict{}
	}
	h.done = true
	return mpi.Verdict{Payload: out}
}

func (h *pairTamper) CrashCheck(int, int) error { return nil }

// trainBounded fails the test if training does not return: a tampered
// exchange must end in an error, not in ranks waiting on each other.
func trainBounded(t *testing.T, d *data.Dataset, pr Params) (*Output, error) {
	t.Helper()
	type res struct {
		out *Output
		err error
	}
	done := make(chan res, 1)
	go func() {
		out, err := Train(d.X, d.Y, pr)
		done <- res{out, err}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-time.After(60 * time.Second):
		t.Fatal("training did not return")
		return nil, nil
	}
}

// TestDisSMOTamperedExchangeFailsTyped: a pair-exchange payload that
// arrives truncated, emptied, or without the row a receiver needs stops the
// run with the typed wire error — on the way up the tree (a child's
// payload) and on the way down (rank 0's verdict) alike.
func TestDisSMOTamperedExchangeFailsTyped(t *testing.T) {
	d := testSet(t, 240)
	cases := []struct {
		name   string
		src    int
		mutate func(high, low candidate, data []byte) []byte
	}{
		{"truncated-up", 1, func(_, _ candidate, data []byte) []byte {
			return append([]byte(nil), data[:len(data)/2]...)
		}},
		{"payload-dropped-up", 3, func(_, _ candidate, _ []byte) []byte { return []byte{} }},
		{"payload-dropped-down", 0, func(_, _ candidate, _ []byte) []byte { return []byte{} }},
		{"row-stripped-down", 0, func(high, low candidate, _ []byte) []byte {
			if len(high.row) == 0 && len(low.row) == 0 {
				return nil // wait for a verdict that carries a row
			}
			high.row, low.row = nil, nil
			return appendCandidate(appendCandidate(nil, high), low)
		}},
		{"owner-out-of-range-down", 0, func(high, low candidate, _ []byte) []byte {
			high.rank = 99
			return appendCandidate(appendCandidate(nil, high), low)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := paramsFor(MethodDisSMO, 4, d)
			pr.Faults = &pairTamper{src: tc.src, mutate: tc.mutate}
			_, err := trainBounded(t, d, pr)
			var werr *pairWireError
			if !errors.As(err, &werr) {
				t.Fatalf("want a pair wire error, got %v", err)
			}
		})
	}
}

// TestDisSMODroppedFrameRetransmits: the fault schedule's drop (the frame
// arrives after the modeled resend timeout) and a duplicate delivery leave
// the exchange's result untouched — same model as the clean run.
func TestDisSMODroppedFrameRetransmits(t *testing.T) {
	d := testSet(t, 240)
	clean, err := Train(d.X, d.Y, paramsFor(MethodDisSMO, 4, d))
	if err != nil {
		t.Fatal(err)
	}
	pr := paramsFor(MethodDisSMO, 4, d)
	pr.Faults = faults.NewSchedule(faults.Schedule{Seed: 5, Events: []faults.ScheduledFault{
		{Kind: "drop", Rank: 1, Send: 3},
		{Kind: "drop", Rank: 0, Send: 9},
		{Kind: "dup", Rank: 2, Send: 4},
	}})
	out, err := trainBounded(t, d, pr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hashOf(t, out), hashOf(t, clean); got != want {
		t.Fatalf("hash %s after drop/dup, want %s", got, want)
	}
}

// BenchmarkTrainDisSMO is the micro-benchmark for the Dis-SMO iteration:
// one op is a whole P=4 training job on the 640×32 mixture the
// repository benchmark's dissmo-dense workload uses (gamma by the same
// rule), so ns/op, allocs/op and msgs/op here move with that workload's
// op_ms, alloc_mb_per_op and core.comm_msgs.
func BenchmarkTrainDisSMO(b *testing.B) {
	d, err := data.Generate(data.MixtureSpec{
		Name: "dissmo-dense", Train: 640, Test: 2000, Features: 32, Clusters: 8,
		Separation: 6, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.03, Margin: 1, Seed: 2015,
	})
	if err != nil {
		b.Fatal(err)
	}
	pr := DefaultParams(MethodDisSMO, 4)
	pr.Kernel = kernel.RBF(1.0 / (2 * 32))
	b.ReportAllocs()
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		out, err := Train(d.X, d.Y, pr)
		if err != nil {
			b.Fatal(err)
		}
		msgs += out.Stats.CommOps
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

// TestDisSMOReportsCacheCounters: Dis-SMO never runs smo.Solve, so rank 0
// publishes the solver counters itself — iterations and the column cache's
// hits and misses — and the run report carries the same two numbers, round
// trip included.
func TestDisSMOReportsCacheCounters(t *testing.T) {
	d := testSet(t, 300)
	pr := paramsFor(MethodDisSMO, 4, d)
	pr.Metrics = trace.NewRegistry()
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Stats
	if st.ColCacheMisses == 0 || st.ColCacheHits <= st.ColCacheMisses {
		t.Fatalf("hits %d misses %d: repeated pairs should mostly hit", st.ColCacheHits, st.ColCacheMisses)
	}
	for name, want := range map[string]int64{
		"smo_iterations_total":       int64(st.Iters),
		"smo_row_cache_hits_total":   st.ColCacheHits,
		"smo_row_cache_misses_total": st.ColCacheMisses,
	} {
		if got := pr.Metrics.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	rep, err := BuildReport(out, pr, "core-test", 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ColCacheHits != st.ColCacheHits || back.ColCacheMisses != st.ColCacheMisses {
		t.Fatalf("report carries %d/%d, want %d/%d", back.ColCacheHits, back.ColCacheMisses, st.ColCacheHits, st.ColCacheMisses)
	}
}
