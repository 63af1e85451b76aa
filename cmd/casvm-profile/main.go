// casvm-profile analyzes the causal section of a Chrome trace written by
// casvm-train/casvm-bench (-trace file): it rebuilds the happens-before
// DAG, extracts the critical path, and decomposes the virtual makespan
// into compute, latency, bandwidth, and wait time — overall and per
// algorithm phase.
//
// Usage:
//
//	casvm-profile run.trace                     # decomposition + top segments
//	casvm-profile -top 20 run.trace             # more of the path
//	casvm-profile -what-if tw=0.5x run.trace    # re-cost: halve the
//	                                            # per-byte bandwidth cost
//	casvm-profile -json run.trace               # machine-readable output
//
// The -what-if spec is a comma-separated list of machine-constant scale
// factors (tc, ts, tw; a trailing "x" is optional): the recorded DAG is
// re-simulated under the scaled α–β model, answering "what would this
// exact run have cost on that machine" without re-running it.
//
// Merged fleet traces (written by casvm-cluster -fleet-trace or by
// examples/distributed -fleet-trace) analyze the same way. Their timebase is
// "wall": spans were rebased from per-worker clocks onto the
// coordinator's timeline using probed clock offsets, which are printed
// per rank. Wall time cannot split a transfer into α and β, so edge cost
// is carried entirely as latency there and a tw re-cost is a no-op —
// re-cost ts to scale transfers instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

func main() {
	var (
		top    = flag.Int("top", 10, "print the k largest critical-path attributions")
		whatIf = flag.String("what-if", "", "re-cost spec, e.g. \"tw=0.5x\" or \"ts=2,tw=0.1\"")
		asJSON = flag.Bool("json", false, "emit the analysis as JSON instead of text")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "casvm-profile: exactly one trace file required")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	extra, err := trace.ReadTraceExtra(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}
	in := critpath.FromExtra(extra)
	a, err := critpath.Analyze(in)
	if err != nil {
		fatal(err)
	}

	var what *critpath.Analysis
	var factors critpath.Factors
	if *whatIf != "" {
		factors, err = critpath.ParseFactors(*whatIf)
		if err != nil {
			fatal(err)
		}
		recosted, err := critpath.Recost(in, factors)
		if err != nil {
			fatal(fmt.Errorf("what-if: %w", err))
		}
		if what, err = critpath.Analyze(recosted); err != nil {
			fatal(fmt.Errorf("what-if: %w", err))
		}
	}

	if *asJSON {
		out := map[string]any{"analysis": a, "top_steps": a.TopSteps(*top)}
		if extra.Timebase != "" {
			out["timebase"] = extra.Timebase
		}
		if len(extra.ClockOffsetsNs) > 0 {
			out["clock_offsets_ns"] = extra.ClockOffsetsNs
		}
		if what != nil {
			out["what_if"] = map[string]any{"factors": factors, "analysis": what}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("trace: %s  (P=%d", flag.Arg(0), extra.P)
	if extra.Timebase != "" {
		fmt.Printf(", timebase=%s", extra.Timebase)
	}
	if extra.CausalityViolations > 0 {
		fmt.Printf(", CAUSALITY VIOLATIONS=%d", extra.CausalityViolations)
	}
	fmt.Println(")")
	if extra.Timebase == trace.TimebaseWall {
		if len(extra.ClockOffsetsNs) > 0 {
			fmt.Print("  clock offsets (ns, subtracted per rank):")
			for r, off := range extra.ClockOffsetsNs {
				fmt.Printf("  %d:%d", r, off)
			}
			fmt.Println()
		}
		fmt.Println("  note: wall timebase — transfer cost is all latency; bandwidth is not separable (a tw re-cost is a no-op, scale ts instead)")
	}
	printAnalysis("critical path", a)
	if *top > 0 && len(a.Path()) > 0 {
		fmt.Printf("\ntop %d attributions:\n", *top)
		for _, s := range a.TopSteps(*top) {
			phase := s.Phase
			if phase == "" {
				phase = "-"
			}
			fmt.Printf("  %12.6fs  rank %-3d %-9s %-10s [%.6f, %.6f)",
				s.AttrSec, s.Rank, s.KindStr, phase, s.Start, s.End)
			if s.EdgeID != 0 {
				fmt.Printf("  edge %d", s.EdgeID)
			}
			fmt.Println()
		}
	}
	if what != nil {
		fmt.Printf("\nwhat-if (tc×%g, ts×%g, tw×%g):\n", factors.Tc, factors.Ts, factors.Tw)
		printAnalysis("re-costed path", what)
		if a.MakespanSec > 0 {
			fmt.Printf("  speedup: %.3fx\n", a.MakespanSec/what.MakespanSec)
		}
	}
}

func printAnalysis(title string, a *critpath.Analysis) {
	fmt.Printf("%s: makespan %.6fs ending on rank %d (%d steps, %d cross-rank hops)\n",
		title, a.MakespanSec, a.EndRank, a.Steps, a.Hops)
	pct := func(v float64) float64 {
		if a.MakespanSec == 0 {
			return 0
		}
		return 100 * v / a.MakespanSec
	}
	fmt.Printf("  compute    %12.6fs  %5.1f%%\n", a.CompSec, pct(a.CompSec))
	fmt.Printf("  latency    %12.6fs  %5.1f%%\n", a.LatencySec, pct(a.LatencySec))
	fmt.Printf("  bandwidth  %12.6fs  %5.1f%%\n", a.BandwidthSec, pct(a.BandwidthSec))
	fmt.Printf("  wait       %12.6fs  %5.1f%%\n", a.WaitSec, pct(a.WaitSec))
	for _, p := range a.Phases {
		fmt.Printf("  phase %-10s %12.6fs  (comp %.6f, lat %.6f, bw %.6f, wait %.6f)\n",
			p.Phase, p.TotalSec(), p.CompSec, p.LatencySec, p.BandwidthSec, p.WaitSec)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "casvm-profile:", err)
	os.Exit(1)
}
