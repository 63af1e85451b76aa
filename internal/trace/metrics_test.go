package trace

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter=%d", c.Value())
	}
	if reg.Counter("ops_total", "ops") != c {
		t.Fatal("counter resolution must be idempotent")
	}

	g := reg.Gauge("temp", "t")
	g.Set(1.5)
	g.Add(-0.5)
	if g.Value() != 1.0 {
		t.Fatalf("gauge=%v", g.Value())
	}

	h := reg.Histogram("lat_seconds", "l", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count=%d", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("hist sum=%v", h.Sum())
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("buckets: %v / %v", bounds, counts)
	}
	want := []int64{1, 2, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket %d=%d, want %d", i, c, want[i])
		}
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	h := NewRegistry().Histogram("h", "", []float64{1, 2})
	h.Observe(1) // exactly on the bound: counts as ≤1
	_, counts := h.Buckets()
	if counts[0] != 1 {
		t.Fatalf("boundary sample landed in %v", counts)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(b) != 4 {
		t.Fatalf("len=%d", len(b))
	}
	for i := range b {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d=%v, want %v", i, b[i], want[i])
		}
	}
	if got := ExpBuckets(0, 2, 3); len(got) != 1 {
		t.Fatalf("degenerate input should give one bucket, got %v", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x as a gauge must panic")
		}
	}()
	reg.Gauge("x", "")
}

func TestNilRegistryAndHandles(t *testing.T) {
	var reg *Registry
	c := reg.Counter("a", "")
	g := reg.Gauge("b", "")
	h := reg.Histogram("c", "", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// All nil-handle updates are no-ops and allocation-free.
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(1)
		h.Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("nil metric handles allocated %.1f/op, want 0", allocs)
	}
	if err := reg.WriteProm(nil); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot() != nil || reg.String() != "" {
		t.Fatal("nil registry output must be empty")
	}
}

func TestWritePromFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("casvm_ops_total", "Total ops.").Add(7)
	reg.Gauge("casvm_ratio", "A ratio.").Set(0.25)
	h := reg.Histogram("casvm_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP casvm_ops_total Total ops.",
		"# TYPE casvm_ops_total counter",
		"casvm_ops_total 7",
		"# TYPE casvm_ratio gauge",
		"casvm_ratio 0.25",
		"# TYPE casvm_lat_seconds histogram",
		`casvm_lat_seconds_bucket{le="0.1"} 1`,
		`casvm_lat_seconds_bucket{le="1"} 2`,
		`casvm_lat_seconds_bucket{le="+Inf"} 3`,
		"casvm_lat_seconds_sum 5.55",
		"casvm_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestWritePromFamilyStructure enforces the exposition-format framing a
// strict scraper needs: every family's samples are preceded by exactly one
// # HELP and one # TYPE line (in that order, HELP present even with empty
// help text), and help strings escape backslashes and newlines.
func TestWritePromFamilyStructure(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Inc() // empty help must still emit # HELP
	reg.Gauge("b_ratio", "line1\nline2 \\ backslash").Set(1)
	reg.Histogram("c_seconds", "Latency.", []float64{1}).Observe(0.5)

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition must end with a newline")
	}
	help := map[string]int{}
	typ := map[string]int{}
	var families []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := fields[2]
			help[name]++
			families = append(families, name)
			if typ[name] != 0 {
				t.Fatalf("HELP for %s after its TYPE:\n%s", name, out)
			}
		case strings.HasPrefix(line, "# TYPE "):
			name := fields[2]
			typ[name]++
			if help[name] != 1 {
				t.Fatalf("TYPE for %s without preceding HELP:\n%s", name, out)
			}
		case line == "":
			t.Fatalf("blank line in exposition:\n%s", out)
		default:
			// A sample: its family (name minus histogram suffixes and
			// labels) must already have HELP+TYPE.
			name := fields[0]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suf); base != name && typ[base] == 1 {
					name = base
					break
				}
			}
			if help[name] != 1 || typ[name] != 1 {
				t.Fatalf("sample %q before its HELP/TYPE:\n%s", line, out)
			}
		}
	}
	if len(families) != 3 {
		t.Fatalf("families %v, want 3", families)
	}
	if !strings.Contains(out, "# HELP a_total\n") {
		t.Fatalf("empty-help family must emit a bare # HELP line:\n%s", out)
	}
	if !strings.Contains(out, `# HELP b_ratio line1\nline2 \\ backslash`) {
		t.Fatalf("help escaping wrong:\n%s", out)
	}
}

func TestSnapshotAndString(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Add(2)
	reg.Gauge("b", "").Set(3.5)
	h := reg.Histogram("c_seconds", "", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	snap := reg.Snapshot()
	if snap["a_total"] != 2 || snap["b"] != 3.5 {
		t.Fatalf("snapshot: %v", snap)
	}
	if snap["c_seconds_count"] != 2 || snap["c_seconds_sum"] != 2.5 {
		t.Fatalf("snapshot histogram: %v", snap)
	}
	s := reg.String()
	if !strings.Contains(s, "a_total=2") || !strings.Contains(s, "b=3.5") {
		t.Fatalf("String(): %q", s)
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("n_total", "")
			h := reg.Histogram("h_seconds", "", []float64{1, 10})
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("n_total", "").Value(); got != 8000 {
		t.Fatalf("lost counter updates: %d", got)
	}
	if got := reg.Histogram("h_seconds", "", nil).Count(); got != 8000 {
		t.Fatalf("lost observations: %d", got)
	}
}

// TestHistogramQuantile pins the interpolation rule: a uniform fill of one
// bucket interpolates linearly, extremes clamp, the +Inf bucket saturates
// at the highest finite bound, and nil/empty histograms report 0.
func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile")
	}
	reg := NewRegistry()
	h := reg.Histogram("q_seconds", "", []float64{1, 2, 4, 8})
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile")
	}
	// 100 samples uniformly into the (1, 2] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got != 1.5 {
		t.Fatalf("median %v, want 1.5 (linear interpolation at half the bucket)", got)
	}
	if got := h.Quantile(1); got != 2 {
		t.Fatalf("q=1 %v, want the bucket's upper bound", got)
	}
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Fatalf("q<0 not clamped: %v", got)
	}
	// An observation beyond every bound lands in +Inf and saturates.
	h2 := reg.Histogram("q2_seconds", "", []float64{1, 2})
	h2.Observe(99)
	if got := h2.Quantile(0.99); got != 2 {
		t.Fatalf("+Inf bucket quantile %v, want highest finite bound 2", got)
	}
}

// TestHistogramQuantileEmpty is the regression test for the empty-histogram
// and empty-bucket paths: every quantile of an unobserved histogram is
// exactly 0 (never NaN or a bucket bound), a zero-value Histogram is safe,
// and ranks that land on the boundary of an empty bucket are attributed to
// a bucket that actually saw data.
func TestHistogramQuantileEmpty(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("qe_seconds", "", []float64{0.001, 1, 100})
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		got := h.Quantile(q)
		if got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
		if math.IsNaN(got) {
			t.Fatalf("empty histogram Quantile(%v) is NaN", q)
		}
	}
	var zero Histogram
	if got := zero.Quantile(0.5); got != 0 {
		t.Fatalf("zero-value histogram Quantile = %v, want 0", got)
	}

	// Empty leading buckets: all mass in (10, 100]. q=0's rank (0) sits on
	// the boundary of every empty bucket before it; it must report from the
	// populated bucket, not an empty bound.
	h2 := reg.Histogram("qe2_seconds", "", []float64{1, 10, 100})
	for i := 0; i < 10; i++ {
		h2.Observe(50)
	}
	if got := h2.Quantile(0); got != 10 {
		t.Fatalf("q=0 with empty leading buckets = %v, want 10 (lower bound of the populated bucket)", got)
	}
	if got := h2.Quantile(1); got != 100 {
		t.Fatalf("q=1 = %v, want 100", got)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got := h2.Quantile(q)
		if math.IsNaN(got) || got < 10 || got > 100 {
			t.Fatalf("Quantile(%v) = %v, want inside the populated bucket (10, 100]", q, got)
		}
	}
}
