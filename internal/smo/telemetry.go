package smo

import (
	"sync"
	"time"
)

// Per-iteration solver telemetry: when Config.Telemetry is set, Solve
// records one IterSample into a fixed-capacity ring after every applied
// SMO step. The ring is the bridge to the live telemetry server
// (internal/telemetry streams it over SSE); a nil ring keeps the solve
// loop on its usual path with a single-branch check and zero allocations.

// IterSample is one iteration's convergence snapshot.
type IterSample struct {
	Rank int `json:"rank"`
	Iter int `json:"iter"`
	// DualObj is the dual objective W(α) = ½·Σ_{α_i>0} α_i(1 − y_i f_i),
	// exact from the identity f_i = Σ_j α_j y_j K_ij − y_i.
	DualObj float64 `json:"dual_obj"`
	// KKTGap is bLow − bHigh from the last working-set scan (0 when the
	// cached extremes were invalidated without a rescan).
	KKTGap float64 `json:"kkt_gap"`
	// SVs counts nonzero multipliers.
	SVs    int   `json:"svs"`
	UnixNs int64 `json:"unix_ns"`
}

// TelemetryRing is a fixed-capacity, concurrency-safe ring of iteration
// samples. Writers (the solver goroutines) overwrite the oldest entries;
// readers page through with Since cursors, so a slow reader loses old
// samples instead of stalling training. All methods are nil-safe.
type TelemetryRing struct {
	mu    sync.Mutex
	buf   []IterSample
	total uint64 // samples ever recorded; buf holds the trailing len(buf)
}

// NewTelemetryRing creates a ring holding the last n samples (n ≤ 0 means
// 1024).
func NewTelemetryRing(n int) *TelemetryRing {
	if n <= 0 {
		n = 1024
	}
	return &TelemetryRing{buf: make([]IterSample, 0, n)}
}

// Record appends a sample, overwriting the oldest once full. Nil-safe.
func (t *TelemetryRing) Record(s IterSample) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[int(t.total)%cap(t.buf)] = s
	}
	t.total++
	t.mu.Unlock()
}

// Total returns how many samples have ever been recorded (0 for nil).
func (t *TelemetryRing) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Since returns every buffered sample with sequence number ≥ cursor, in
// record order, plus the next cursor (pass it back in to page). Samples
// older than the ring's capacity are gone; the returned slice is a copy.
func (t *TelemetryRing) Since(cursor uint64) ([]IterSample, uint64) {
	if t == nil {
		return nil, cursor
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	oldest := t.total - uint64(len(t.buf))
	if cursor < oldest {
		cursor = oldest
	}
	if cursor >= t.total {
		return nil, t.total
	}
	n := int(t.total - cursor)
	out := make([]IterSample, 0, n)
	for seq := cursor; seq < t.total; seq++ {
		out = append(out, t.buf[int(seq)%cap(t.buf)])
	}
	return out, t.total
}

// sampleTelemetry records one IterSample after an applied step; called
// from Solve only when a ring is attached.
func (s *Solver) sampleTelemetry() {
	var dual float64
	svs := 0
	for i, a := range s.alpha {
		if a > 0 {
			dual += a * (1 - s.y[i]*s.f[i])
			svs++
		}
	}
	var gap float64
	if s.extValid && s.ext.IHigh >= 0 && s.ext.ILow >= 0 {
		gap = s.ext.BLow - s.ext.BHigh
	}
	s.cfg.Telemetry.Record(IterSample{
		Rank:    s.cfg.TelemetryRank,
		Iter:    s.iters,
		DualObj: dual / 2,
		KKTGap:  gap,
		SVs:     svs,
		UnixNs:  time.Now().UnixNano(),
	})
}
