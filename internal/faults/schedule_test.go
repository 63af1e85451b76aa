package faults

import (
	"errors"
	"reflect"
	"testing"

	"casvm/internal/mpi"
)

// TestRandomScheduleDeterministic: the same (seed, p, n, opts) draw yields
// the same schedule — a soak failure reproduces from its seed alone.
func TestRandomScheduleDeterministic(t *testing.T) {
	opts := ScheduleOptions{MaxIter: 32, MaxSend: 8, MaxCrashes: 2}
	a := RandomSchedule(7, 4, 6, opts)
	b := RandomSchedule(7, 4, 6, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a.Events, b.Events)
	}
	c := RandomSchedule(8, 4, 6, opts)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds drew identical schedules")
	}
	crashes := 0
	for _, e := range a.Events {
		if e.Kind == "crash-iter" || e.Kind == "crash-send" {
			crashes++
		}
	}
	if crashes > 2 {
		t.Fatalf("%d crash events exceed MaxCrashes=2", crashes)
	}
}

// TestScheduleCrashFiresOnce is the property that separates Schedule from
// Injector: after the crash fires, a respawned rank polling the same
// iteration again sails through.
func TestScheduleCrashFiresOnce(t *testing.T) {
	in := NewSchedule(Schedule{Events: []ScheduledFault{{Kind: "crash-iter", Rank: 2, Iter: 10}}})
	if err := in.CrashCheck(2, 5); err != nil {
		t.Fatalf("fired before trigger: %v", err)
	}
	if err := in.CrashCheck(1, 50); err != nil {
		t.Fatalf("fired for wrong rank: %v", err)
	}
	if err := in.CrashCheck(2, 12); err == nil {
		t.Fatal("did not fire at trigger")
	}
	// The respawned rank replays the same iterations: no re-fire.
	for iter := 0; iter < 64; iter++ {
		if err := in.CrashCheck(2, iter); err != nil {
			t.Fatalf("re-fired at iter %d after recovery", iter)
		}
	}
	if n := len(in.Events()); n != 1 {
		t.Fatalf("realized events = %d, want 1", n)
	}
}

// TestScheduleSendFaultsOneShot: message faults trigger at the rank's
// send-index threshold, exactly once each, and drops become retransmit
// delays (the in-process runtime has no retransmission of its own).
func TestScheduleSendFaultsOneShot(t *testing.T) {
	in := NewSchedule(Schedule{
		Events: []ScheduledFault{
			{Kind: "drop", Rank: 0, Send: 2},
			{Kind: "dup", Rank: 0, Send: 3},
			{Kind: "corrupt", Rank: 1, Send: 1},
		},
		RetransmitSec: 5e-3,
	})
	payload := []byte{1, 2, 3, 4}

	v := in.Intercept(0, 1, 7, payload) // rank 0 send #1: nothing armed yet
	if v.DelaySec != 0 || v.Duplicates != 0 || v.Payload != nil {
		t.Fatalf("send #1 perturbed: %+v", v)
	}
	v = in.Intercept(0, 1, 7, payload) // send #2: drop → retransmit delay
	if v.DelaySec != 5e-3 {
		t.Fatalf("drop not modeled as retransmit delay: %+v", v)
	}
	v = in.Intercept(0, 1, 7, payload) // send #3: dup (drop already consumed)
	if v.Duplicates != 1 || v.DelaySec != 0 {
		t.Fatalf("dup verdict: %+v", v)
	}
	v = in.Intercept(1, 0, 7, payload) // rank 1 send #1: corrupt
	if v.Payload == nil || &v.Payload[0] == &payload[0] {
		t.Fatal("corrupt must replace the payload without aliasing")
	}
	if n := len(in.Events()); n != 3 {
		t.Fatalf("realized events = %d, want 3", n)
	}
}

// TestScheduleEmpty: an empty schedule is a valid no-op injector — the
// -replay-faults path must accept a report whose chaos run happened to
// realize nothing. No poll perturbs, and the faults block round-trips to
// an equally empty schedule.
func TestScheduleEmpty(t *testing.T) {
	in := NewSchedule(Schedule{Seed: 9})
	for iter := 0; iter < 16; iter++ {
		for rank := 0; rank < 4; rank++ {
			if err := in.CrashCheck(rank, iter); err != nil {
				t.Fatalf("empty schedule crashed rank %d at iter %d: %v", rank, iter, err)
			}
		}
		if n := in.JoinCheck(iter); n != 0 {
			t.Fatalf("empty schedule grew the world by %d at iter %d", n, iter)
		}
	}
	if v := in.Intercept(0, 1, 7, []byte{1}); v.DelaySec != 0 || v.Duplicates != 0 || v.Payload != nil || v.CrashErr != nil {
		t.Fatalf("empty schedule perturbed the wire: %+v", v)
	}
	fi := in.FaultsInfo()
	if fi.Seed != 9 || len(fi.Schedule) != 0 || len(fi.Injected) != 0 {
		t.Fatalf("empty faults block: %+v", fi)
	}
	got := ScheduleFromFaults(fi)
	if got.Seed != 9 || len(got.Events) != 0 {
		t.Fatalf("empty round trip diverged: %+v", got)
	}
}

// TestSchedulePastRunEnd: events whose triggers lie beyond the run's last
// iteration stay armed but silent — the run completes fault-free, the
// report's schedule still carries them (replay fidelity), and the realized
// log does not.
func TestSchedulePastRunEnd(t *testing.T) {
	s := Schedule{Events: []ScheduledFault{
		{Kind: "crash-iter", Rank: 1, Iter: 1000},
		{Kind: "leave", Rank: 0, Iter: 1000},
		{Kind: "join", Iter: 1000},
		{Kind: "drop", Rank: 0, Send: 1 << 20},
	}}
	in := NewSchedule(s)
	const runEnd = 100 // the solver converges long before any trigger
	for iter := 0; iter < runEnd; iter++ {
		for rank := 0; rank < 2; rank++ {
			if err := in.CrashCheck(rank, iter); err != nil {
				t.Fatalf("fired before its trigger: %v", err)
			}
		}
		if n := in.JoinCheck(iter); n != 0 {
			t.Fatalf("join fired before its trigger at iter %d", iter)
		}
		if v := in.Intercept(0, 1, 7, []byte{1}); v.DelaySec != 0 || v.Duplicates != 0 || v.Payload != nil || v.CrashErr != nil {
			t.Fatalf("send fault fired before its index: %+v", v)
		}
	}
	if n := len(in.Events()); n != 0 {
		t.Fatalf("%d events realized in a run that ends before every trigger", n)
	}
	fi := in.FaultsInfo()
	if len(fi.Schedule) != 4 || len(fi.Injected) != 0 {
		t.Fatalf("report must keep unfired events in the schedule (got %d) and out of the realized log (got %d)",
			len(fi.Schedule), len(fi.Injected))
	}
	if got := ScheduleFromFaults(fi); !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatalf("unfired events lost in round trip:\n%v\n%v", s.Events, got.Events)
	}
}

// TestScheduleSameRankSameEpoch: two departure events armed for the same
// rank at the same iteration consume one per poll, in schedule order — the
// first poll kills the rank once, and only the respawned incarnation's
// next poll takes the second hit. A join armed at the same epoch is
// consumed independently of the crash poll.
func TestScheduleSameRankSameEpoch(t *testing.T) {
	in := NewSchedule(Schedule{Events: []ScheduledFault{
		{Kind: "crash-iter", Rank: 2, Iter: 8},
		{Kind: "leave", Rank: 2, Iter: 8},
		{Kind: "join", Iter: 8},
		{Kind: "join", Iter: 8},
	}})
	err1 := in.CrashCheck(2, 8)
	if err1 == nil {
		t.Fatal("first poll did not fire")
	}
	var ce *mpi.CrashError
	if !errors.As(err1, &ce) || ce.Site != "training loop" {
		t.Fatalf("events must fire in schedule order; first poll got %v", err1)
	}
	// The respawned incarnation replays the epoch and takes the second hit.
	err2 := in.CrashCheck(2, 8)
	if err2 == nil {
		t.Fatal("second event swallowed: one poll must consume exactly one departure")
	}
	if !errors.As(err2, &ce) || ce.Site != "lease expired" {
		t.Fatalf("second poll got %v, want the leave event", err2)
	}
	if err := in.CrashCheck(2, 8); err != nil {
		t.Fatalf("third poll re-fired a consumed event: %v", err)
	}
	// Both joins due at the same epoch are handed over in one poll: the
	// supervisor grows the world once, by two ranks.
	if n := in.JoinCheck(8); n != 2 {
		t.Fatalf("JoinCheck = %d, want both same-epoch joins at once", n)
	}
	if n := in.JoinCheck(8); n != 0 {
		t.Fatalf("joins re-fired: %d", n)
	}
	if n := len(in.Events()); n != 4 {
		t.Fatalf("realized events = %d, want 4", n)
	}
}

// TestScheduleFaultsInfoRoundTrip: FaultsInfo → ScheduleFromFaults
// reconstructs the schedule (the -replay-faults path).
func TestScheduleFaultsInfoRoundTrip(t *testing.T) {
	s := RandomSchedule(3, 4, 5, ScheduleOptions{})
	s.Policy = "respawn"
	s.CheckpointEvery = 16
	in := NewSchedule(s)
	fi := in.FaultsInfo()
	if fi.Seed != 3 || fi.Policy != "respawn" || fi.CheckpointEvery != 16 {
		t.Fatalf("faults block header: %+v", fi)
	}
	got := ScheduleFromFaults(fi)
	if got.Seed != s.Seed || !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatalf("round trip diverged:\n%v\n%v", s.Events, got.Events)
	}
}

// Events returns a copy of the realized-fault log in injection order.
func (in *ScheduleInjector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}
