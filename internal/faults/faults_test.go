package faults

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"casvm/internal/mpi"
	"casvm/internal/perfmodel"
)

// drive pushes a fixed synthetic message sequence through an injector and
// returns the event log.
func drive(in *ScheduleInjector) []Event {
	payload := []byte("0123456789abcdef")
	for msg := 0; msg < 200; msg++ {
		src := msg % 4
		dst := (msg + 1) % 4
		in.Intercept(src, dst, msg%7, payload)
	}
	return in.Events()
}

func TestScheduleIsDeterministic(t *testing.T) {
	opts := ScheduleOptions{Kinds: []string{"drop", "dup", "corrupt", "delay"}, MaxSend: 40}
	a := drive(NewSchedule(RandomSchedule(7, 4, 12, opts)))
	b := drive(NewSchedule(RandomSchedule(7, 4, 12, opts)))
	if len(a) == 0 {
		t.Fatal("schedule injected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// A different seed must produce a different schedule.
	c := drive(NewSchedule(RandomSchedule(8, 4, 12, opts)))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
}

func TestCorruptionDoesNotAliasPayload(t *testing.T) {
	in := NewSchedule(Schedule{Events: []ScheduledFault{{Kind: "corrupt", Rank: 0, Send: 1}}})
	orig := []byte("do not touch")
	keep := append([]byte(nil), orig...)
	v := in.Intercept(0, 1, 3, orig)
	if v.Payload == nil {
		t.Fatal("scheduled corruption did not fire")
	}
	if !bytes.Equal(orig, keep) {
		t.Fatal("injector mutated the caller's payload")
	}
	if bytes.Equal(v.Payload, orig) {
		t.Fatal("corrupted payload equals original")
	}
}

func TestCrashAtSendAbortsWorld(t *testing.T) {
	in := NewSchedule(Schedule{Events: []ScheduledFault{{Kind: "crash-send", Rank: 2, Send: 3}}})
	w := mpi.NewWorld(4, perfmodel.Hopper(), 1)
	w.SetTransportHook(in)
	err := w.Run(func(c *mpi.Comm) error {
		for i := 0; i < 50; i++ {
			if _, err := fmtBcast(c, i); err != nil {
				return err
			}
		}
		return nil
	})
	var crash *mpi.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want CrashError, got %v", err)
	}
	if crash.Rank != 2 {
		t.Fatalf("crashed rank %d, want 2", crash.Rank)
	}
	if lost := w.Stats().LostRanks(); len(lost) != 1 || lost[0] != 2 {
		t.Fatalf("LostRanks=%v, want [2]", lost)
	}
	if ev := in.Events(); len(ev) != 1 || ev[0].Kind != "crash-send" {
		t.Fatalf("events: %v, want one crash-send", ev)
	}
}

// fmtBcast rotates the broadcast root so every rank eventually sends.
func fmtBcast(c *mpi.Comm, round int) ([]byte, error) {
	root := round % c.Size()
	var payload []byte
	if c.Rank() == root {
		payload = []byte(fmt.Sprintf("round %d", round))
	}
	return c.Bcast(root, payload), nil
}

func TestDelayOnlyStretchesVirtualTime(t *testing.T) {
	run := func(hook mpi.TransportHook) ([]float64, float64) {
		w := mpi.NewWorld(4, perfmodel.Hopper(), 1)
		if hook != nil {
			w.SetTransportHook(hook)
		}
		var got []float64
		err := w.Run(func(c *mpi.Comm) error {
			out := c.AllreduceSum([]float64{float64(c.Rank() + 1)})
			if c.Rank() == 0 {
				got = out
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, w.MaxClock()
	}
	clean, cleanClock := run(nil)
	var everyFirstSend []ScheduledFault
	for r := 0; r < 4; r++ {
		everyFirstSend = append(everyFirstSend, ScheduledFault{Kind: "delay", Rank: r, Send: 1, DelaySec: 0.5})
	}
	delayed, delayedClock := run(NewSchedule(Schedule{Events: everyFirstSend}))
	if clean[0] != delayed[0] {
		t.Fatalf("delay changed the result: %v vs %v", clean, delayed)
	}
	if delayedClock <= cleanClock+0.4 {
		t.Fatalf("delays not reflected in virtual time: %v vs %v", delayedClock, cleanClock)
	}
}

func TestCrashCheck(t *testing.T) {
	in := NewSchedule(Schedule{Events: []ScheduledFault{{Kind: "crash-iter", Rank: 1, Iter: 10}}})
	if err := in.CrashCheck(1, 9); err != nil {
		t.Fatalf("early crash: %v", err)
	}
	if err := in.CrashCheck(0, 100); err != nil {
		t.Fatalf("wrong rank crashed: %v", err)
	}
	err := in.CrashCheck(1, 10)
	var crash *mpi.CrashError
	if !errors.As(err, &crash) || crash.Rank != 1 || crash.Iter != 10 {
		t.Fatalf("want rank-1 iter-10 CrashError, got %v", err)
	}
}
