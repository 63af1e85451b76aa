package core

import (
	"strings"
	"testing"

	"casvm/internal/faults"
	"casvm/internal/trace"
)

// crashSchedule is a single seeded mid-run crash of rank `rank` at
// iteration `iter`.
func crashSchedule(rank, iter int) *faults.ScheduleInjector {
	return faults.NewSchedule(faults.Schedule{
		Seed:   1,
		Events: []faults.ScheduledFault{{Kind: "crash-iter", Rank: rank, Iter: iter}},
	})
}

func hashOf(t *testing.T, out *Output) string {
	t.Helper()
	h, err := ModelHash(out.Set)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestDisSMORespawnBitIdentical is the golden acceptance scenario: Dis-SMO
// on P=8 with rank 3 killed mid-run, recovered by respawn from the last
// consistent checkpoint, finishes with the exact model of the fault-free
// run — same SHA-256 — with the recovery accounted.
func TestDisSMORespawnBitIdentical(t *testing.T) {
	d := testSet(t, 480)

	clean := paramsFor(MethodDisSMO, 8, d)
	cleanOut, err := Train(d.X, d.Y, clean)
	if err != nil {
		t.Fatal(err)
	}
	if cleanOut.Stats.Iters < 48 {
		t.Fatalf("fault-free run converged in %d iters; crash site unreachable", cleanOut.Stats.Iters)
	}

	pr := paramsFor(MethodDisSMO, 8, d)
	pr.Faults = crashSchedule(3, 40)
	pr.Recovery = Recovery{Policy: RecoverRespawn, CheckpointEvery: 16}
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatalf("recovered training failed: %v", err)
	}

	if out.Stats.Recoveries != 1 {
		t.Fatalf("Recoveries=%d, want 1", out.Stats.Recoveries)
	}
	if got := out.Stats.LostRanks; len(got) != 1 || got[0] != 3 {
		t.Fatalf("LostRanks=%v, want [3]", got)
	}
	if out.Stats.RecoverySec <= 0 {
		t.Fatal("RecoverySec not charged")
	}
	if out.Stats.TotalSec <= cleanOut.Stats.TotalSec {
		t.Fatalf("recovered TotalSec %.4f not above clean %.4f: lost work unpriced",
			out.Stats.TotalSec, cleanOut.Stats.TotalSec)
	}
	if got, want := hashOf(t, out), hashOf(t, cleanOut); got != want {
		t.Fatalf("recovered model hash %s != fault-free %s", got, want)
	}
	if out.Stats.Iters != cleanOut.Stats.Iters {
		t.Fatalf("recovered iters %d != clean %d", out.Stats.Iters, cleanOut.Stats.Iters)
	}
}

// TestDisSMOShrinkConverges: shrink recovery rebuilds the world without the
// dead rank, re-slices the global-row-space checkpoint over 7 blocks, and
// converges to the same model — Dis-SMO's trajectory is partition-
// independent, so even the hash survives the re-partition.
func TestDisSMOShrinkConverges(t *testing.T) {
	d := testSet(t, 480)

	clean := paramsFor(MethodDisSMO, 8, d)
	cleanOut, err := Train(d.X, d.Y, clean)
	if err != nil {
		t.Fatal(err)
	}

	pr := paramsFor(MethodDisSMO, 8, d)
	pr.Faults = crashSchedule(3, 40)
	pr.Recovery = Recovery{Policy: RecoverShrink, CheckpointEvery: 16}
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatalf("shrink recovery failed: %v", err)
	}
	if out.Stats.P != 7 {
		t.Fatalf("shrunk world P=%d, want 7", out.Stats.P)
	}
	if got := out.Stats.LostRanks; len(got) != 1 || got[0] != 3 {
		t.Fatalf("LostRanks=%v, want [3]", got)
	}
	if out.Stats.Recoveries != 1 {
		t.Fatalf("Recoveries=%d, want 1", out.Stats.Recoveries)
	}
	if got, want := hashOf(t, out), hashOf(t, cleanOut); got != want {
		t.Fatalf("shrink-recovered model hash %s != fault-free %s "+
			"(Dis-SMO state is partition-independent)", got, want)
	}
	acc := out.Set.Accuracy(d.TestX, d.TestY)
	if acc < 0.88 {
		t.Fatalf("shrink-recovered accuracy %.3f < 0.88", acc)
	}
}

// TestLocalSolveRespawnBitIdentical: the (rank, solve-sequence) checkpoint
// path — used by the reduction trees and the independent-model methods —
// also recovers bit-identically under respawn.
func TestLocalSolveRespawnBitIdentical(t *testing.T) {
	d := testSet(t, 480)
	for _, m := range []Method{MethodCascade, MethodDCSVM, MethodRACA, MethodCPSVM} {
		t.Run(string(m), func(t *testing.T) {
			clean := paramsFor(m, 4, d)
			cleanOut, err := Train(d.X, d.Y, clean)
			if err != nil {
				t.Fatal(err)
			}
			pr := paramsFor(m, 4, d)
			pr.Faults = crashSchedule(2, 10)
			pr.Recovery = Recovery{Policy: RecoverRespawn, CheckpointEvery: 8}
			out, err := Train(d.X, d.Y, pr)
			if err != nil {
				t.Fatalf("%s: recovered training failed: %v", m, err)
			}
			if out.Stats.Recoveries != 1 {
				t.Fatalf("Recoveries=%d, want 1", out.Stats.Recoveries)
			}
			if got, want := hashOf(t, out), hashOf(t, cleanOut); got != want {
				t.Fatalf("%s: recovered hash %s != clean %s", m, got, want)
			}
		})
	}
}

// TestShrinkLocalSolveMethods: the independent-model and tree methods also
// absorb a shrink — their (rank, seq) checkpoints cannot survive the
// re-partition, so the shrunk run restarts from scratch at the new width and
// is checked for convergence, not hash identity.
func TestShrinkLocalSolveMethods(t *testing.T) {
	d := testSet(t, 480)
	for _, m := range []Method{MethodRACA, MethodCascade} {
		t.Run(string(m), func(t *testing.T) {
			pr := paramsFor(m, 4, d)
			pr.Faults = crashSchedule(1, 10)
			pr.Recovery = Recovery{Policy: RecoverShrink, CheckpointEvery: 8}
			out, err := Train(d.X, d.Y, pr)
			if err != nil {
				t.Fatalf("%s: shrink training failed: %v", m, err)
			}
			if out.Stats.P != 3 {
				t.Fatalf("%s: final P=%d, want 3", m, out.Stats.P)
			}
			if out.Stats.Recoveries != 1 {
				t.Fatalf("%s: Recoveries=%d, want 1", m, out.Stats.Recoveries)
			}
			if got := out.Stats.LostRanks; len(got) != 1 || got[0] != 1 {
				t.Fatalf("%s: LostRanks=%v, want [1]", m, got)
			}
			acc := out.Set.Accuracy(d.TestX, d.TestY)
			if acc < 0.85 {
				t.Fatalf("%s: shrunk accuracy %.3f < 0.85", m, acc)
			}
		})
	}
}

// TestJoinIgnoredWithoutSupervisor: "join" is no fault kind — growing a
// running job is the cluster's, not the in-process supervisor's — so a
// hand-built schedule carrying one leaves an unsupervised run untouched: it
// completes at its width with the fault-free model, not with a stray resize.
func TestJoinIgnoredWithoutSupervisor(t *testing.T) {
	d := testSet(t, 480)
	cleanOut, err := Train(d.X, d.Y, paramsFor(MethodDisSMO, 4, d))
	if err != nil {
		t.Fatal(err)
	}
	pr := paramsFor(MethodDisSMO, 4, d)
	pr.Faults = faults.NewSchedule(faults.Schedule{
		Seed:   5,
		Events: []faults.ScheduledFault{{Kind: "join", Iter: 10}},
	})
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatalf("unsupervised run with a join event failed: %v", err)
	}
	if out.Stats.P != 4 || out.Stats.Recoveries != 0 {
		t.Fatalf("P=%d Recoveries=%d, want 4/0", out.Stats.P, out.Stats.Recoveries)
	}
	if got, want := hashOf(t, out), hashOf(t, cleanOut); got != want {
		t.Fatalf("join-event hash %s != fault-free %s", got, want)
	}
}

// TestRecoveryObservability: recovery emits checkpoint and recovery spans
// into the timeline and counters into the metrics registry, and the run
// report carries the realized fault schedule plus recovery totals.
func TestRecoveryObservability(t *testing.T) {
	d := testSet(t, 480)
	pr := paramsFor(MethodDisSMO, 8, d)
	pr.Faults = crashSchedule(3, 40)
	pr.Recovery = Recovery{Policy: RecoverRespawn, CheckpointEvery: 16}
	pr.Timeline = trace.NewTimeline(8)
	pr.Metrics = trace.NewRegistry()
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}

	var ckSpans, recSpans int
	for _, e := range pr.Timeline.Events() {
		switch e.Cat {
		case trace.CatCheckpoint:
			ckSpans++
		case trace.CatRecovery:
			recSpans++
			if !strings.HasPrefix(e.Name, "recovery:") {
				t.Fatalf("recovery span named %q", e.Name)
			}
			if e.VirtDurSec <= 0 {
				t.Fatal("recovery span carries no virtual duration")
			}
		}
	}
	if ckSpans == 0 {
		t.Fatal("no checkpoint spans recorded")
	}
	if recSpans != 1 {
		t.Fatalf("recovery spans=%d, want 1", recSpans)
	}

	snap := pr.Metrics.Snapshot()
	if snap["casvm_recoveries_total"] != 1 {
		t.Fatalf("casvm_recoveries_total=%v, want 1", snap["casvm_recoveries_total"])
	}
	if snap["casvm_checkpoints_total"] == 0 {
		t.Fatal("casvm_checkpoints_total not incremented")
	}
	if snap["casvm_restores_total"] == 0 {
		t.Fatal("casvm_restores_total not incremented")
	}

	rep, err := BuildReport(out, pr, "core-test", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries != 1 || rep.RecoverySec <= 0 || len(rep.LostRanks) != 1 {
		t.Fatalf("report recovery totals: %d / %v, lost %v", rep.Recoveries, rep.RecoverySec, rep.LostRanks)
	}
	if rep.Faults == nil {
		t.Fatal("report missing faults block")
	}
	if len(rep.Faults.Schedule) != 1 || len(rep.Faults.Injected) != 1 {
		t.Fatalf("faults block schedule=%d injected=%d, want 1/1",
			len(rep.Faults.Schedule), len(rep.Faults.Injected))
	}
	if rep.Faults.Policy != "respawn" || rep.Faults.CheckpointEvery != 16 {
		t.Fatalf("faults block policy=%q every=%d", rep.Faults.Policy, rep.Faults.CheckpointEvery)
	}
}

// TestReplayFromReport: a report's faults block reconstructs the exact
// schedule — replaying it reproduces the recovered run's model hash.
func TestReplayFromReport(t *testing.T) {
	d := testSet(t, 480)
	pr := paramsFor(MethodDisSMO, 8, d)
	pr.Faults = crashSchedule(3, 40)
	pr.Recovery = Recovery{Policy: RecoverRespawn, CheckpointEvery: 16}
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(out, pr, "", 0)
	if err != nil {
		t.Fatal(err)
	}

	replay := paramsFor(MethodDisSMO, 8, d)
	sched, err := faults.ScheduleFromFaults(rep.Faults)
	if err != nil {
		t.Fatal(err)
	}
	replay.Faults = faults.NewSchedule(sched)
	replay.Recovery = Recovery{Policy: RecoveryPolicy(rep.Faults.Policy),
		CheckpointEvery: rep.Faults.CheckpointEvery}
	out2, err := Train(d.X, d.Y, replay)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if out2.Stats.Recoveries != out.Stats.Recoveries {
		t.Fatalf("replay recoveries %d != original %d", out2.Stats.Recoveries, out.Stats.Recoveries)
	}
	if got, want := hashOf(t, out2), hashOf(t, out); got != want {
		t.Fatalf("replay hash %s != original %s", got, want)
	}
}

// TestReplayReportRecordsRecoveryRun: a replay may run a recorded schedule
// under a different recovery than the one that recorded it, and its report
// must name the recovery it ran — not echo the recorded one — or replaying
// that report reruns the wrong policy at the wrong width.
func TestReplayReportRecordsRecoveryRun(t *testing.T) {
	d := testSet(t, 480)
	recorded := &trace.FaultsInfo{Seed: 4, Policy: "respawn", CheckpointEvery: 8,
		Schedule: []trace.FaultEvent{{Kind: "crash-iter", Rank: 3, Iter: 40}}}
	for _, rec := range []Recovery{{Policy: RecoverShrink, CheckpointEvery: 16}, {}} {
		sched, err := faults.ScheduleFromFaults(recorded)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Policy == RecoverOff {
			sched.Events = nil // an unsupervised crash fails the run
		}
		pr := paramsFor(MethodDisSMO, 8, d)
		pr.Faults = faults.NewSchedule(sched)
		pr.Recovery = rec
		out, err := Train(d.X, d.Y, pr)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := BuildReport(out, pr, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		fi := rep.Faults
		if fi == nil || fi.Seed != 4 {
			t.Fatalf("%q: faults block %+v, want seed 4", rec.Policy, fi)
		}
		if fi.Policy != string(rec.Policy) || fi.CheckpointEvery != rec.CheckpointEvery {
			t.Fatalf("report records %q every %d, but the run used %q every %d",
				fi.Policy, fi.CheckpointEvery, rec.Policy, rec.CheckpointEvery)
		}
		if rec.Policy == RecoverShrink && out.Stats.P != 7 {
			t.Fatalf("replay ran at P=%d, want the shrunk 7", out.Stats.P)
		}
	}
}

// TestDisSMOChurnGoldenHash: a Dis-SMO run on P=8 loses two workers in
// turn (shrinking to 7, then 6) and still lands on the fault-free
// ModelHash — successive shrinks compose over the global-row-space
// checkpoints because Dis-SMO's trajectory is partition-independent.
func TestDisSMOChurnGoldenHash(t *testing.T) {
	d := testSet(t, 480)

	clean := paramsFor(MethodDisSMO, 8, d)
	cleanOut, err := Train(d.X, d.Y, clean)
	if err != nil {
		t.Fatal(err)
	}
	if cleanOut.Stats.Iters < 48 {
		t.Fatalf("fault-free run converged in %d iters; churn sites unreachable", cleanOut.Stats.Iters)
	}

	pr := paramsFor(MethodDisSMO, 8, d)
	pr.Faults = faults.NewSchedule(faults.Schedule{Seed: 7, Events: []faults.ScheduledFault{
		{Kind: "crash-iter", Rank: 6, Iter: 20},
		{Kind: "crash-iter", Rank: 5, Iter: 30},
	}})
	pr.Recovery = Recovery{Policy: RecoverShrink, CheckpointEvery: 8}
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatalf("churn training failed: %v", err)
	}
	if out.Stats.P != 6 {
		t.Fatalf("final P=%d, want 6 (8 shrunk twice)", out.Stats.P)
	}
	if out.Stats.Recoveries != 2 {
		t.Fatalf("Recoveries=%d, want 2", out.Stats.Recoveries)
	}
	if got := out.Stats.LostRanks; len(got) != 2 || got[0] != 6 || got[1] != 5 {
		t.Fatalf("LostRanks=%v, want [6 5]", got)
	}
	if out.Stats.RecoverySec <= 0 {
		t.Fatal("RecoverySec not charged")
	}
	if out.Stats.TotalSec <= cleanOut.Stats.TotalSec {
		t.Fatalf("churn TotalSec %.4f not above clean %.4f: lost work unpriced",
			out.Stats.TotalSec, cleanOut.Stats.TotalSec)
	}
	if got, want := hashOf(t, out), hashOf(t, cleanOut); got != want {
		t.Fatalf("churn model hash %s != fault-free %s", got, want)
	}
	if out.Stats.Iters != cleanOut.Stats.Iters {
		t.Fatalf("churn iters %d != clean %d", out.Stats.Iters, cleanOut.Stats.Iters)
	}
}

// TestRecoveryBudgetExhausted: more crashes than the restart budget fails with a
// bounded, typed error instead of looping forever.
func TestRecoveryBudgetExhausted(t *testing.T) {
	d := testSet(t, 480)
	pr := paramsFor(MethodDisSMO, 4, d)
	pr.Faults = faults.NewSchedule(faults.Schedule{
		Seed: 1,
		Events: []faults.ScheduledFault{
			{Kind: "crash-iter", Rank: 0, Iter: 10},
			{Kind: "crash-iter", Rank: 1, Iter: 20},
			{Kind: "crash-iter", Rank: 2, Iter: 30},
			{Kind: "crash-iter", Rank: 3, Iter: 40},
		},
	})
	pr.Recovery = Recovery{Policy: RecoverRespawn, CheckpointEvery: 8}
	_, err := Train(d.X, d.Y, pr)
	if err == nil {
		t.Fatal("want budget-exhausted error")
	}
	if !strings.Contains(err.Error(), "recovery budget exhausted") {
		t.Fatalf("unexpected error: %v", err)
	}
}
