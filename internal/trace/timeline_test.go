package trace

import (
	"testing"
	"time"
)

func TestTimelineRecordsSpansAndInstants(t *testing.T) {
	tl := NewTimeline(2)
	r0, r1 := tl.Rank(0), tl.Rank(1)

	sp := r0.BeginVirt(CatCollective, "Bcast", 1.0)
	time.Sleep(time.Millisecond)
	r0.EndVirt(sp, 1.5)

	sp = r1.Begin(CatSolver, "scan")
	r1.EndFlops(sp, 128)

	r0.Instant(CatFault, "rank-crashed")

	evs := tl.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	var bcast, scan, crash *Event
	for i := range evs {
		switch evs[i].Name {
		case "Bcast":
			bcast = &evs[i]
		case "scan":
			scan = &evs[i]
		case "rank-crashed":
			crash = &evs[i]
		}
	}
	if bcast == nil || scan == nil || crash == nil {
		t.Fatalf("missing events: %+v", evs)
	}
	if bcast.Cat != CatCollective || bcast.Rank != 0 {
		t.Fatalf("bcast event: %+v", *bcast)
	}
	if bcast.VirtStartSec != 1.0 || bcast.VirtDurSec != 0.5 {
		t.Fatalf("bcast virtual time: %+v", *bcast)
	}
	if bcast.WallDurNs < int64(time.Millisecond) {
		t.Fatalf("bcast wall duration %dns, want ≥1ms", bcast.WallDurNs)
	}
	if scan.Flops != 128 || scan.Rank != 1 {
		t.Fatalf("scan event: %+v", *scan)
	}
	if !crash.Instant || crash.WallDurNs != 0 {
		t.Fatalf("crash event: %+v", *crash)
	}
}

func TestTimelineEventsOrdered(t *testing.T) {
	tl := NewTimeline(2)
	for i := 0; i < 10; i++ {
		r := tl.Rank(i % 2)
		r.End(r.Begin(CatSolver, "x"))
	}
	evs := tl.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].WallStartNs < evs[i-1].WallStartNs {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestTimelineCapCountsDrops(t *testing.T) {
	tl := NewTimelineCap(1, 3)
	r := tl.Rank(0)
	for i := 0; i < 10; i++ {
		r.End(r.Begin(CatSolver, "x"))
	}
	r.Instant(CatFault, "y") // also counted against the cap
	if got := len(tl.Events()); got != 3 {
		t.Fatalf("kept %d events, want cap 3", got)
	}
	if got := tl.Dropped(); got != 8 {
		t.Fatalf("Dropped=%d, want 8", got)
	}
}

func TestTimelineNilSafety(t *testing.T) {
	var tl *Timeline
	if tl.Rank(0) != nil {
		t.Fatal("nil timeline must hand out nil recorders")
	}
	if tl.Events() != nil || tl.Dropped() != 0 || tl.PhaseStats() != nil {
		t.Fatal("nil timeline accessors must be empty")
	}
	// Out-of-range ranks must not panic either.
	real := NewTimeline(2)
	if real.Rank(-1) != nil || real.Rank(2) != nil {
		t.Fatal("out-of-range ranks must be nil recorders")
	}

	var r *Recorder
	sp := r.BeginVirt(CatSolver, "x", 1)
	r.End(sp)
	r.EndVirt(sp, 2)
	r.EndFlops(sp, 3)
	r.Instant(CatFault, "y")
}

// The disabled path must be allocation-free: instrumented hot loops call
// Begin/End unconditionally, so a nil recorder costing even one allocation
// would tax every un-traced run.
func TestNilRecorderDoesNotAllocate(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.Begin(CatSolver, "scan")
		r.EndFlops(sp, 64)
		sp = r.BeginVirt(CatCollective, "Bcast", 1)
		r.EndVirt(sp, 2)
		r.Instant(CatFault, "crash")
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f/op, want 0", allocs)
	}
}

func TestPhaseStatsAggregation(t *testing.T) {
	tl := NewTimeline(2)
	for rank := 0; rank < 2; rank++ {
		r := tl.Rank(rank)
		for i := 0; i < 3; i++ {
			sp := r.BeginVirt(CatSolver, "update", 0)
			r.EndVirt(sp, 0.25)
		}
		sp := r.Begin(CatKernel, "row-fill")
		r.EndFlops(sp, 100)
	}
	stats := tl.PhaseStats()
	if len(stats) != 2 {
		t.Fatalf("got %d phases, want 2: %+v", len(stats), stats)
	}
	byName := map[string]PhaseStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	up := byName["update"]
	if up.Count != 6 || up.Cat != CatSolver {
		t.Fatalf("update phase: %+v", up)
	}
	if up.VirtSec < 1.49 || up.VirtSec > 1.51 {
		t.Fatalf("update virt=%v, want 1.5", up.VirtSec)
	}
	rf := byName["row-fill"]
	if rf.Count != 2 || rf.Flops != 200 {
		t.Fatalf("row-fill phase: %+v", rf)
	}
}
