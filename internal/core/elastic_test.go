package core

import (
	"testing"

	"casvm/internal/faults"
	"casvm/internal/trace"
)

// churnSchedule builds the golden worker-churn plan: two lease expiries
// ("leave") that shrink the world, then two worker joins absorbed at the
// next checkpoint epoch boundary.
func churnSchedule() *faults.ScheduleInjector {
	return faults.NewSchedule(faults.Schedule{
		Seed: 7,
		Events: []faults.ScheduledFault{
			{Kind: "leave", Rank: 6, Iter: 20},
			{Kind: "leave", Rank: 5, Iter: 30},
			{Kind: "join", Iter: 33},
			{Kind: "join", Iter: 33},
		},
	})
}

// TestDisSMOChurnGoldenHash is the elastic acceptance scenario: a Dis-SMO
// run on P=8 loses two workers to lease expiry (shrinking to 7, then 6),
// later absorbs two joining workers at a checkpoint epoch boundary (growing
// back to 8), and still lands on the fault-free ModelHash — shrink, grow,
// and the global-row-space checkpoints compose because Dis-SMO's trajectory
// is partition-independent.
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
	pr.Faults = churnSchedule()
	pr.Recovery = Recovery{Policy: RecoverShrink, CheckpointEvery: 8}
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatalf("churn training failed: %v", err)
	}

	if out.Stats.P != 8 {
		t.Fatalf("final P=%d, want 8 (shrank to 6, grew back)", out.Stats.P)
	}
	if out.Stats.Recoveries != 2 {
		t.Fatalf("Recoveries=%d, want 2 (the two lease expiries)", out.Stats.Recoveries)
	}
	if got := out.Stats.LostRanks; len(got) != 2 || got[0] != 6 || got[1] != 5 {
		t.Fatalf("LostRanks=%v, want [6 5]", got)
	}
	if out.Stats.Grows != 1 {
		t.Fatalf("Grows=%d, want 1 (both joins absorbed at one epoch boundary)", out.Stats.Grows)
	}
	if out.Stats.JoinedRanks != 2 {
		t.Fatalf("JoinedRanks=%d, want 2", out.Stats.JoinedRanks)
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

// TestGrowLocalSolveMethods: the independent-model and tree methods also
// absorb a mid-run join — their (rank, seq) checkpoints cannot survive the
// re-partition, so the grown run restarts from scratch at the new width and
// is checked for convergence, not hash identity.
func TestGrowLocalSolveMethods(t *testing.T) {
	d := testSet(t, 480)
	for _, m := range []Method{MethodRACA, MethodCascade} {
		t.Run(string(m), func(t *testing.T) {
			pr := paramsFor(m, 4, d)
			pr.Faults = faults.NewSchedule(faults.Schedule{
				Seed:   3,
				Events: []faults.ScheduledFault{{Kind: "join", Iter: 10}},
			})
			pr.Recovery = Recovery{Policy: RecoverRespawn, CheckpointEvery: 8}
			out, err := Train(d.X, d.Y, pr)
			if err != nil {
				t.Fatalf("%s: grow training failed: %v", m, err)
			}
			if out.Stats.P != 5 {
				t.Fatalf("%s: final P=%d, want 5", m, out.Stats.P)
			}
			if out.Stats.Grows != 1 || out.Stats.JoinedRanks != 1 {
				t.Fatalf("%s: Grows=%d JoinedRanks=%d, want 1/1",
					m, out.Stats.Grows, out.Stats.JoinedRanks)
			}
			if out.Stats.Recoveries != 0 {
				t.Fatalf("%s: Recoveries=%d, want 0 (a grow is not a crash)", m, out.Stats.Recoveries)
			}
			acc := out.Set.Accuracy(d.TestX, d.TestY)
			if acc < 0.85 {
				t.Fatalf("%s: grown accuracy %.3f < 0.85", m, acc)
			}
		})
	}
}

// TestJoinIgnoredWithoutSupervisor: join events need a recovery supervisor
// to act on them; an unsupervised run must complete cleanly as if the
// schedule held no joins, not abort with a stray resize.
func TestJoinIgnoredWithoutSupervisor(t *testing.T) {
	d := testSet(t, 480)
	pr := paramsFor(MethodDisSMO, 4, d)
	pr.Faults = faults.NewSchedule(faults.Schedule{
		Seed:   5,
		Events: []faults.ScheduledFault{{Kind: "join", Iter: 10}},
	})
	out, err := Train(d.X, d.Y, pr)
	if err != nil {
		t.Fatalf("unsupervised run with pending joins failed: %v", err)
	}
	if out.Stats.P != 4 || out.Stats.Grows != 0 {
		t.Fatalf("P=%d Grows=%d, want 4/0: no supervisor, no grow", out.Stats.P, out.Stats.Grows)
	}
}

// TestGrowObservability: a grow emits its own recovery span and counters,
// distinct from crash recoveries.
func TestGrowObservability(t *testing.T) {
	d := testSet(t, 480)
	pr := paramsFor(MethodDisSMO, 4, d)
	pr.Faults = faults.NewSchedule(faults.Schedule{
		Seed:   9,
		Events: []faults.ScheduledFault{{Kind: "join", Iter: 10}},
	})
	pr.Recovery = Recovery{Policy: RecoverRespawn, CheckpointEvery: 8}
	pr.Metrics = trace.NewRegistry()
	if _, err := Train(d.X, d.Y, pr); err != nil {
		t.Fatal(err)
	}
	snap := pr.Metrics.Snapshot()
	if snap["casvm_grows_total"] != 1 {
		t.Fatalf("casvm_grows_total=%v, want 1", snap["casvm_grows_total"])
	}
	if snap["casvm_grow_ranks_total"] != 1 {
		t.Fatalf("casvm_grow_ranks_total=%v, want 1", snap["casvm_grow_ranks_total"])
	}
	if snap["casvm_recoveries_total"] != 0 {
		t.Fatalf("casvm_recoveries_total=%v, want 0", snap["casvm_recoveries_total"])
	}
}
