// casvm-bench regenerates the paper's tables and figures from this
// repository's implementation.
//
// Usage:
//
//	casvm-bench -exp table13            # one experiment
//	casvm-bench -exp all -scale 0.5     # everything, half-size datasets
//	casvm-bench -list                   # what exists
//
// Experiment ids follow the paper: table3..table22, fig5, fig7, fig8, fig9.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"casvm/internal/expt"
	"casvm/internal/smo"
	"casvm/internal/telemetry"
	"casvm/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "casvm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("casvm-bench", flag.ContinueOnError)
	var (
		exp    = fs.String("exp", "", "experiment id (table3..table22, fig5, fig7, fig8, fig9, all)")
		scale  = fs.Float64("scale", 1.0, "dataset scale multiplier")
		p      = fs.Int("p", 8, "ranks for the fixed-size experiments")
		maxP   = fs.Int("maxp", 64, "largest rank count in the scaling sweeps")
		seed   = fs.Int64("seed", 1, "run seed")
		report = fs.String("report", "", "write a JSON array of per-run structured reports to this path")
		serve  = fs.String("serve", "", "serve live telemetry on this address while experiments run: /metrics, /events (SSE), /report, /debug/pprof")
		list   = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, r := range expt.Runners() {
			fmt.Fprintf(stdout, "%-8s %s\n", r.ID, r.Title)
		}
		return nil
	}
	if *exp == "" {
		return fmt.Errorf("-exp is required (or -list)")
	}
	cfg := expt.Config{Out: stdout, Scale: *scale, P: *p, MaxP: *maxP, Seed: *seed}
	if *report != "" {
		cfg.Reports = &expt.ReportSink{}
	}
	if *serve != "" {
		// One registry and one telemetry ring span every training run the
		// experiments perform; /report pages through the reports collected
		// so far (collection is forced on so there is something to show).
		if cfg.Reports == nil {
			cfg.Reports = &expt.ReportSink{}
		}
		cfg.Metrics = trace.NewRegistry()
		cfg.Telemetry = smo.NewTelemetryRing(0)
		srv, err := telemetry.Start(*serve, telemetry.Config{
			Metrics: cfg.Metrics,
			Ring:    cfg.Telemetry,
			Report:  func() any { return cfg.Reports.Snapshot() },
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "telemetry: http://%s  (/metrics /events /report /debug/pprof)\n", srv.Addr())
	}
	if *exp == "all" {
		if err := expt.RunAll(cfg); err != nil {
			return err
		}
	} else {
		r, err := expt.Find(*exp)
		if err != nil {
			return err
		}
		if err := expt.RunOne(r, cfg); err != nil {
			return err
		}
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		err = cfg.Reports.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d run reports written to %s\n", cfg.Reports.Len(), *report)
	}
	return nil
}
