package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics registry: named counters, gauges and fixed-bucket histograms
// shared by the runtime layers (collective latencies in mpi, row-cache hit
// rates in the solver, membership and job counts in the cluster). Metric
// handles are resolved once (a mutex-guarded map lookup) and then updated
// lock-free with atomics; a nil *Registry resolves to nil handles whose
// update methods are single-branch no-ops, so instrumented code records
// unconditionally at zero cost when metrics are off.

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that may go up or down.
type Gauge struct{ v atomicFloat }

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add offsets the gauge by v (no-op on nil).
func (g *Gauge) Add(v float64) {
	if g != nil {
		g.v.Add(v)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets (cumulative style, like
// Prometheus: bucket i counts observations ≤ bounds[i], with an implicit
// +Inf bucket).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	n      atomic.Int64
}

// Observe records one sample (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns (upper bounds..., +Inf implied) and the per-bucket
// (non-cumulative) counts. Nil-safe.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Quantile estimates the q-th quantile (clamped to [0, 1]) of the observed
// distribution by linear interpolation inside the containing bucket. The
// open +Inf bucket reports the highest finite bound (the histogram cannot
// resolve beyond it). Returns 0 for a nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum int64
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		if c == 0 {
			// An empty bucket holds no observation, so no rank can land in
			// it — skipping keeps q=0 (and any boundary rank) pinned to a
			// bucket that actually saw data instead of an arbitrary bound.
			continue
		}
		if float64(cum)+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(b-lo)
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start with the given factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return []float64{start}
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metricEntry struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry owns a namespace of metrics. Handle resolution (Counter, Gauge,
// Histogram) is idempotent get-or-create; concurrent resolution of the
// same name returns the same handle.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metricEntry
	ordered []*metricEntry
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]*metricEntry{}} }

func (r *Registry) lookup(name, help string, kind metricKind) *metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("trace: metric %q re-registered with a different kind", name))
		}
		return e
	}
	e := &metricEntry{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	}
	r.byName[name] = e
	r.ordered = append(r.ordered, e)
	return e
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter).c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge).g
}

// Histogram returns the named histogram, creating it on first use with the
// given ascending upper bounds. Nil-safe. Bounds are fixed at creation;
// later calls with different bounds return the original histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kindHistogram {
			panic(fmt.Sprintf("trace: metric %q re-registered with a different kind", name))
		}
		return e.h
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	e := &metricEntry{name: name, help: help, kind: kindHistogram, h: h}
	r.byName[name] = e
	r.ordered = append(r.ordered, e)
	return h
}

// snapshotEntries copies the entry list under the lock; values are read
// atomically afterwards.
func (r *Registry) snapshotEntries() []*metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metricEntry(nil), r.ordered...)
}

// promEscapeHelp escapes a HELP string per the exposition format:
// backslashes and line feeds must be escaped so one metric's help cannot
// break the line framing.
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteProm renders every metric in the Prometheus text exposition format
// (metric names are used verbatim; pick prometheus-compatible names).
// Every family is preceded by its # HELP and # TYPE lines — stricter
// scrapers reject bare samples. Nil-safe: a nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, e := range r.snapshotEntries() {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, promEscapeHelp(e.help)); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "# HELP %s\n", e.name); err != nil {
				return err
			}
		}
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", e.name, e.name, e.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", e.name, e.name, formatFloat(e.g.Value()))
		case kindHistogram:
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", e.name); err != nil {
				return err
			}
			bounds, counts := e.h.Buckets()
			var cum int64
			for i, b := range bounds {
				cum += counts[i]
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", e.name, formatFloat(b), cum); err != nil {
					return err
				}
			}
			cum += counts[len(counts)-1]
			_, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				e.name, cum, e.name, formatFloat(e.h.Sum()), e.name, e.h.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Snapshot flattens every metric to name → value: counters and gauges
// directly, histograms as name_count / name_sum. Run reports embed it.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := map[string]float64{}
	for _, e := range r.snapshotEntries() {
		switch e.kind {
		case kindCounter:
			out[e.name] = float64(e.c.Value())
		case kindGauge:
			out[e.name] = e.g.Value()
		case kindHistogram:
			out[e.name+"_count"] = float64(e.h.Count())
			out[e.name+"_sum"] = e.h.Sum()
		}
	}
	return out
}

// String renders a compact name=value listing (counters and gauges only),
// for log lines.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range r.snapshotEntries() {
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s=%d ", e.name, e.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s=%s ", e.name, formatFloat(e.g.Value()))
		}
	}
	return strings.TrimSpace(b.String())
}
