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
// "wall": spans were rebased from per-worker clocks onto rank 0's, using
// clock offsets read off the job's own messages (a pair's edges both ways
// bound its offset; the merge takes the midpoint), which are printed per
// rank. Wall time cannot split a transfer into α and β, so edge cost
// is carried entirely as latency there and a tw re-cost is a no-op —
// re-cost ts to scale transfers instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "casvm-profile:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("casvm-profile", flag.ContinueOnError)
	var (
		top    = fs.Int("top", 10, "print the k largest critical-path attributions")
		whatIf = fs.String("what-if", "", "re-cost spec, e.g. \"tw=0.5x\" or \"ts=2,tw=0.1\"")
		asJSON = fs.Bool("json", false, "emit the analysis as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("exactly one trace file required")
	}
	path := fs.Arg(0)
	var factors critpath.Factors
	if *whatIf != "" {
		var err error
		if factors, err = critpath.ParseFactors(*whatIf); err != nil {
			return err
		}
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	extra, err := trace.ReadTraceExtra(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	in := critpath.FromExtra(extra)
	a, err := critpath.Analyze(in)
	if err != nil {
		return err
	}

	var what *critpath.Analysis
	if *whatIf != "" {
		recosted, err := critpath.Recost(in, factors)
		if err != nil {
			return fmt.Errorf("what-if: %w", err)
		}
		if what, err = critpath.Analyze(recosted); err != nil {
			return fmt.Errorf("what-if: %w", err)
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
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Fprintf(stdout, "trace: %s  (P=%d", path, extra.P)
	if extra.Timebase != "" {
		fmt.Fprintf(stdout, ", timebase=%s", extra.Timebase)
	}
	if extra.CausalityViolations > 0 {
		fmt.Fprintf(stdout, ", CAUSALITY VIOLATIONS=%d", extra.CausalityViolations)
	}
	fmt.Fprintln(stdout, ")")
	if extra.Timebase == trace.TimebaseWall {
		if len(extra.ClockOffsetsNs) > 0 {
			fmt.Fprint(stdout, "  clock offsets (ns, subtracted per rank):")
			for r, off := range extra.ClockOffsetsNs {
				fmt.Fprintf(stdout, "  %d:%d", r, off)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintln(stdout, "  note: wall timebase — transfer cost is all latency; bandwidth is not separable (a tw re-cost is a no-op, scale ts instead)")
	}
	printAnalysis(stdout, "critical path", a)
	if *top > 0 && len(a.Path()) > 0 {
		fmt.Fprintf(stdout, "\ntop %d attributions:\n", *top)
		for _, s := range a.TopSteps(*top) {
			phase := s.Phase
			if phase == "" {
				phase = "-"
			}
			fmt.Fprintf(stdout, "  %12.6fs  rank %-3d %-9s %-10s [%.6f, %.6f)",
				s.AttrSec, s.Rank, s.KindStr, phase, s.Start, s.End)
			if s.EdgeID != 0 {
				fmt.Fprintf(stdout, "  edge %d", s.EdgeID)
			}
			fmt.Fprintln(stdout)
		}
	}
	if what != nil {
		fmt.Fprintf(stdout, "\nwhat-if (tc×%g, ts×%g, tw×%g):\n", factors.Tc, factors.Ts, factors.Tw)
		printAnalysis(stdout, "re-costed path", what)
		if a.MakespanSec > 0 {
			fmt.Fprintf(stdout, "  speedup: %.3fx\n", a.MakespanSec/what.MakespanSec)
		}
	}
	return nil
}

func printAnalysis(stdout io.Writer, title string, a *critpath.Analysis) {
	fmt.Fprintf(stdout, "%s: makespan %.6fs ending on rank %d (%d steps, %d cross-rank hops)\n",
		title, a.MakespanSec, a.EndRank, a.Steps, a.Hops)
	pct := func(v float64) float64 {
		if a.MakespanSec == 0 {
			return 0
		}
		return 100 * v / a.MakespanSec
	}
	fmt.Fprintf(stdout, "  compute    %12.6fs  %5.1f%%\n", a.CompSec, pct(a.CompSec))
	fmt.Fprintf(stdout, "  latency    %12.6fs  %5.1f%%\n", a.LatencySec, pct(a.LatencySec))
	fmt.Fprintf(stdout, "  bandwidth  %12.6fs  %5.1f%%\n", a.BandwidthSec, pct(a.BandwidthSec))
	fmt.Fprintf(stdout, "  wait       %12.6fs  %5.1f%%\n", a.WaitSec, pct(a.WaitSec))
	for _, p := range a.Phases {
		fmt.Fprintf(stdout, "  phase %-10s %12.6fs  (comp %.6f, lat %.6f, bw %.6f, wait %.6f)\n",
			p.Phase, p.TotalSec(), p.CompSec, p.LatencySec, p.BandwidthSec, p.WaitSec)
	}
}
