package faults

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"casvm/internal/mpi"
	"casvm/internal/trace"
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
	})
	payload := []byte{1, 2, 3, 4}

	v := in.Intercept(0, 1, 7, payload) // rank 0 send #1: nothing armed yet
	if v.DelaySec != 0 || v.Duplicates != 0 || v.Payload != nil {
		t.Fatalf("send #1 perturbed: %+v", v)
	}
	v = in.Intercept(0, 1, 7, payload) // send #2: drop → retransmit delay
	if v.DelaySec != 2e-3 {
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
	}
	if v := in.Intercept(0, 1, 7, []byte{1}); v.DelaySec != 0 || v.Duplicates != 0 || v.Payload != nil || v.CrashErr != nil {
		t.Fatalf("empty schedule perturbed the wire: %+v", v)
	}
	fi := in.FaultsInfo()
	if fi.Seed != 9 || len(fi.Schedule) != 0 || len(fi.Injected) != 0 {
		t.Fatalf("empty faults block: %+v", fi)
	}
	got, err := ScheduleFromFaults(fi)
	if err != nil || got.Seed != 9 || len(got.Events) != 0 {
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
		if v := in.Intercept(0, 1, 7, []byte{1}); v.DelaySec != 0 || v.Duplicates != 0 || v.Payload != nil || v.CrashErr != nil {
			t.Fatalf("send fault fired before its index: %+v", v)
		}
	}
	if n := len(in.Events()); n != 0 {
		t.Fatalf("%d events realized in a run that ends before every trigger", n)
	}
	fi := in.FaultsInfo()
	if len(fi.Schedule) != 2 || len(fi.Injected) != 0 {
		t.Fatalf("report must keep unfired events in the schedule (got %d) and out of the realized log (got %d)",
			len(fi.Schedule), len(fi.Injected))
	}
	if got, err := ScheduleFromFaults(fi); err != nil || !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatalf("unfired events lost in round trip:\n%v\n%v", s.Events, got.Events)
	}
}

// TestScheduleSameRankSameEpoch: two crashes armed for the same rank at
// the same iteration consume one per poll — the first poll kills the rank
// once, and only the respawned incarnation's next poll takes the second hit.
func TestScheduleSameRankSameEpoch(t *testing.T) {
	in := NewSchedule(Schedule{Events: []ScheduledFault{
		{Kind: "crash-iter", Rank: 2, Iter: 8},
		{Kind: "crash-iter", Rank: 2, Iter: 8},
	}})
	var ce *mpi.CrashError
	if err := in.CrashCheck(2, 8); !errors.As(err, &ce) || ce.Site != "training loop" {
		t.Fatalf("first poll got %v, want a crash", err)
	}
	// The respawned incarnation replays the epoch and takes the second hit.
	if err := in.CrashCheck(2, 8); err == nil {
		t.Fatal("second event swallowed: one poll must consume exactly one crash")
	}
	if err := in.CrashCheck(2, 8); err != nil {
		t.Fatalf("third poll re-fired a consumed event: %v", err)
	}
	if n := len(in.Events()); n != 2 {
		t.Fatalf("realized events = %d, want 2", n)
	}
}

// TestScheduleFaultsInfoRoundTrip: FaultsInfo → ScheduleFromFaults
// reconstructs the schedule (the -replay-faults path).
func TestScheduleFaultsInfoRoundTrip(t *testing.T) {
	s := RandomSchedule(3, 4, 5, ScheduleOptions{})
	fi := NewSchedule(s).FaultsInfo()
	if fi.Seed != 3 {
		t.Fatalf("faults block seed = %d, want 3", fi.Seed)
	}
	got, err := ScheduleFromFaults(fi)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != s.Seed || !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatalf("round trip diverged:\n%v\n%v", s.Events, got.Events)
	}
}

// TestScheduleFromFaultsKinds: a replay file is outside input, so a kind
// the injector does not know — a typo, or the retired "leave" and "join" —
// is refused by name instead of being consumed silently at a rank's first
// send; every kind the injector fires is accepted.
func TestScheduleFromFaultsKinds(t *testing.T) {
	for _, tc := range []struct {
		kind string
		ok   bool
	}{
		{"crash-iter", true}, {"crash-send", true}, {"drop", true},
		{"delay", true}, {"dup", true}, {"corrupt", true},
		{"crash_iter", false}, {"leave", false}, {"join", false},
	} {
		fi := &trace.FaultsInfo{Seed: 1, Schedule: []trace.FaultEvent{
			{Kind: "drop", Rank: 0, Send: 1},
			{Kind: tc.kind, Rank: 1, Iter: 4, Send: 2},
		}}
		s, err := ScheduleFromFaults(fi)
		switch {
		case tc.ok && (err != nil || len(s.Events) != 2 || s.Events[1].Kind != tc.kind):
			t.Errorf("%q: got %v, %v; want it accepted", tc.kind, s.Events, err)
		case !tc.ok && err == nil:
			t.Errorf("%q: accepted, want refused", tc.kind)
		case !tc.ok && !strings.Contains(err.Error(), strconv.Quote(tc.kind)):
			t.Errorf("%q: error %q does not name the kind", tc.kind, err)
		}
	}
}

// TestRandomScheduleNoRanks: with no rank to fault the draw is empty rather
// than a panic, so a bad -p reaches the trainer's own validation.
func TestRandomScheduleNoRanks(t *testing.T) {
	for _, p := range []int{0, -1} {
		if s := RandomSchedule(3, p, 4, ScheduleOptions{}); s.Seed != 3 || len(s.Events) != 0 {
			t.Fatalf("p=%d: drew %v, want no events", p, s.Events)
		}
	}
}

// Events returns a copy of the realized-fault log in injection order.
func (in *ScheduleInjector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}
