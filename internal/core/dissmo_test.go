package core

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"casvm/internal/data"
	"casvm/internal/faults"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/mpi"
	"casvm/internal/trace"
)

// TestBlockStartMatchesEvenBlocks: blockStart splits m rows into p
// contiguous blocks from 0 to m whose sizes differ by at most one, the
// longer ones first.
func TestBlockStartMatchesEvenBlocks(t *testing.T) {
	for _, m := range []int{1, 7, 8, 9, 300, 641} {
		for p := 1; p <= 9 && p <= m; p++ {
			if got := blockStart(m, p, 0); got != 0 {
				t.Fatalf("m=%d p=%d: start %d", m, p, got)
			}
			for r := range p {
				size := m / p
				if r < m%p {
					size++
				}
				if got := blockStart(m, p, r+1) - blockStart(m, p, r); got != size {
					t.Fatalf("m=%d p=%d r=%d: block of %d rows, want %d", m, p, r, got, size)
				}
			}
			if got := blockStart(m, p, p); got != m {
				t.Fatalf("m=%d p=%d: end %d", m, p, got)
			}
		}
	}
}

// TestRunRankRecordsSolverSpans: a rank whose timeline is its world's, with
// no Params.Timeline — a cluster executor's mesh rank — records its local
// solver's spans on every rank, for Dis-SMO, a tree method and FCFS-CA. The
// fleet merge takes a remote rank's compute from such spans.
func TestRunRankRecordsSolverSpans(t *testing.T) {
	d := testSet(t, 240)
	for _, m := range []Method{MethodDisSMO, MethodCascade, MethodFCFSCA} {
		pr := paramsFor(m, 3, d)
		w := mpi.NewWorld(pr.P, pr.Machine, pr.Seed)
		tl := trace.NewTimeline(pr.P)
		w.SetTimeline(tl)
		if err := w.Run(func(c *mpi.Comm) error {
			_, err := RunRank(c, d.X, d.Y, pr)
			return err
		}); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		spans := make([]int, pr.P)
		for _, e := range tl.Events() {
			if e.Cat == trace.CatSolver {
				spans[e.Rank]++
			}
		}
		for r, n := range spans {
			if n == 0 {
				t.Errorf("%s: rank %d recorded no solver spans (per rank: %v)", m, r, spans)
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
	// The trajectory is also the one the four-collective loop took: its
	// iterations, and its hash up to the last bits the one Gaussian recipe
	// moved (ac59fae48645680205fc33cfb790917673d721c5f6ae3ce7fd560c007a024990
	// before dense kernel rows took the norms identity; the root package's
	// TestModelHashRepin keeps the text form of the fingerprint as history).
	if want := "e91b5c586ccba2b50471560ea9e7ff8513f98a60547e9d8fed9a9aec6b93e000"; refHash != want || refIters != 969 {
		t.Errorf("hash %s iters %d, want %s 969", refHash, refIters, want)
	}
}

// TestDisSMOPreRewriteHashes pins Dis-SMO on the storage and kernel paths
// the golden end-to-end run does not reach — CSR rows under the Gaussian
// kernel (norms-identity distances, sparse wire rows), and a dense linear
// kernel (non-unit diagonal, iteration cap) — to the values the uncached
// four-collective loop produced, re-pinned from the text fingerprint to
// Set.Hash by the root package's TestModelHashRepin.
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
	lin.MaxIter = 3000

	for _, tc := range []struct {
		name  string
		d     *data.Dataset
		pr    Params
		hash  string
		iters int
		svs   int
	}{
		{"sparse-rbf", sparse, rbf, "97caeeed9787a5e9d1a67ef5682b8800a4f18874b3d3af8db8963b40cdfadd09", 1056, 282},
		{"dense-linear", dense, lin, "b646d4f4330446e6459b2403b5677a09e1e93289a53795b105caab0261feaa56", 3000, 193},
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

// reshapeRow returns a pairTamper mutation that replaces the first row a
// payload carries with f of it, re-encoded.
func reshapeRow(f func(x *la.Matrix) *la.Matrix) func(high, low candidate, _ []byte) []byte {
	return func(high, low candidate, _ []byte) []byte {
		w := &high
		if len(w.row) == 0 {
			w = &low
		}
		if len(w.row) == 0 {
			return nil // wait for a payload that carries a row
		}
		x, err := la.DecodeMatrix(w.row)
		if err != nil {
			panic(err)
		}
		y := f(x)
		w.row = y.EncodeRows(allRows(y.Rows()))
		return appendCandidate(appendCandidate(nil, high), low)
	}
}

// Wrong-shaped sample rows, each from a dense 1-row matrix: one feature too
// many, two rows, and the same row in CSR storage.
var wrongRows = []struct {
	name string
	f    func(x *la.Matrix) *la.Matrix
}{
	{"row-wide-down", func(x *la.Matrix) *la.Matrix {
		return la.NewDense(1, x.Features()+1, append(slices.Clone(x.DenseRow(0)), 1))
	}},
	{"row-two-rows-down", func(x *la.Matrix) *la.Matrix { return la.Concat(x, x) }},
	{"row-other-kind-down", func(x *la.Matrix) *la.Matrix {
		var ix []int32
		var vx []float64
		for j, v := range x.DenseRow(0) {
			if v != 0 {
				ix, vx = append(ix, int32(j)), append(vx, v)
			}
		}
		return la.NewSparse(1, x.Features(), []int32{0, int32(len(ix))}, ix, vx)
	}},
}

// TestDisSMOTamperedExchangeFailsTyped: a pair-exchange payload that
// arrives truncated, emptied, without the row a receiver needs, or with a
// row of the wrong shape — a feature too many, two rows, the other storage
// kind — stops the run with the typed wire error, on the way up the tree (a
// child's payload) and on the way down (rank 0's verdict) alike. A
// wrong-shaped row is refused before it takes a column-cache slot.
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
	for _, tc := range wrongRows {
		t.Run(tc.name, func(t *testing.T) {
			pr := paramsFor(MethodDisSMO, 4, d)
			pr.Faults = &pairTamper{src: 0, mutate: reshapeRow(tc.f)}
			_, err := trainBounded(t, d, pr)
			var werr *pairWireError
			if !errors.As(err, &werr) {
				t.Fatalf("want a pair wire error, got %v", err)
			}
			// The same row offered straight to an exchange's insert.
			local := part{x: d.X, y: d.Y}
			bad := tc.f(d.X.Subset([]int{7}))
			err = mpi.NewWorld(1, pr.Machine, pr.Seed).Run(func(c *mpi.Comm) error {
				ex := newPairExchange(c, local, nil, pr, d.X.Rows())
				if _, err := ex.insert(7, candidate{y: 1, row: bad.EncodeRows(allRows(bad.Rows()))}); !errors.As(err, &werr) {
					t.Errorf("insert: want a pair wire error, got %v", err)
				}
				if _, misses := ex.cache.Stats(); misses != 0 || ex.cache.Resident(7) {
					t.Errorf("a refused row took a slot: %d misses, resident %v", misses, ex.cache.Resident(7))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
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
