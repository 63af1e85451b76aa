package smo

import (
	"time"

	"casvm/internal/trace"
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

// TelemetryRing is the ring of iteration samples Config.Telemetry names:
// writers (the solver goroutines) overwrite the oldest entries, and readers
// page through with Since cursors, so a slow reader loses old samples
// instead of stalling training. All methods are nil-safe.
type TelemetryRing = trace.Ring[IterSample]

// NewTelemetryRing creates a ring holding the last n samples (n ≤ 0 means
// 1024).
func NewTelemetryRing(n int) *TelemetryRing { return trace.NewRing[IterSample](n) }

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
