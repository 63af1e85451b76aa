package core

import (
	"errors"
	"testing"
	"time"

	"casvm/internal/faults"
	"casvm/internal/mpi"
)

// messageFaults schedules one fault of the given kind on each of the first n
// remote sends of every rank below p.
func messageFaults(kind string, p, n int, delaySec float64) *faults.ScheduleInjector {
	var ev []faults.ScheduledFault
	for r := 0; r < p; r++ {
		for k := 1; k <= n; k++ {
			ev = append(ev, faults.ScheduledFault{Kind: kind, Rank: r, Send: k, DelaySec: delaySec})
		}
	}
	return faults.NewSchedule(faults.Schedule{Events: ev})
}

// TestDisSMOFailsFastOnCrash: a method that genuinely needs every rank
// must not hang when one dies — peers blocked in allreduce are unblocked
// and the crashed rank's typed error surfaces.
func TestDisSMOFailsFastOnCrash(t *testing.T) {
	d := testSet(t, 240)
	pr := paramsFor(MethodDisSMO, 8, d)
	pr.Faults = crashSchedule(3, 5)

	done := make(chan error, 1)
	go func() {
		_, err := Train(d.X, d.Y, pr)
		done <- err
	}()
	select {
	case err := <-done:
		var crash *mpi.CrashError
		if !errors.As(err, &crash) {
			t.Fatalf("want CrashError, got %v", err)
		}
		if crash.Rank != 3 {
			t.Fatalf("crashed rank %d, want 3", crash.Rank)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dis-SMO hung after a rank crash")
	}
}

// TestCrashWithoutRecoveryAborts: without a recovery policy, a crash aborts
// even the independent-model methods with the rank's typed error.
func TestCrashWithoutRecoveryAborts(t *testing.T) {
	d := testSet(t, 240)
	pr := paramsFor(MethodRACA, 8, d)
	pr.Faults = crashSchedule(2, 5)
	_, err := Train(d.X, d.Y, pr)
	var crash *mpi.CrashError
	if !errors.As(err, &crash) || crash.Rank != 2 {
		t.Fatalf("want rank-2 CrashError, got %v", err)
	}
}

// TestCorruptionBoundedOutcome: corrupting the scatter on the wire must
// never hang or panic the runtime — training either completes (a flipped
// feature byte decodes to a perturbed but valid sample) or fails with a
// structural decode error, and is never misreported as a rank crash.
func TestCorruptionBoundedOutcome(t *testing.T) {
	d := testSet(t, 240)
	in := messageFaults("corrupt", 4, 8, 0)
	pr := paramsFor(MethodRACA, 4, d)
	pr.Placement = PlacementRoot // force a scatter so there is traffic to corrupt
	pr.Faults = in
	done := make(chan error, 1)
	go func() {
		_, err := Train(d.X, d.Y, pr)
		done <- err
	}()
	select {
	case err := <-done:
		var crash *mpi.CrashError
		if errors.As(err, &crash) {
			t.Fatalf("corruption misreported as crash: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("corrupted run hung")
	}
	if len(in.FaultsInfo().Injected) == 0 {
		t.Fatal("no corruption was injected")
	}
}

// TestDelayInjectionPreservesModel: pure latency faults change virtual
// time, never results.
func TestDelayInjectionPreservesModel(t *testing.T) {
	d := testSet(t, 240)
	pr := paramsFor(MethodCPSVM, 4, d)
	base, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	pr2 := paramsFor(MethodCPSVM, 4, d)
	pr2.Faults = messageFaults("delay", 4, 4, 1e-3)
	slow, err := Train(d.X, d.Y, pr2)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.SVs != slow.Stats.SVs || base.Stats.Iters != slow.Stats.Iters {
		t.Fatalf("delays changed training: svs %d vs %d, iters %d vs %d",
			base.Stats.SVs, slow.Stats.SVs, base.Stats.Iters, slow.Stats.Iters)
	}
	if slow.Stats.TotalSec <= base.Stats.TotalSec {
		t.Fatalf("delays not charged: %.6f vs %.6f", slow.Stats.TotalSec, base.Stats.TotalSec)
	}
}
