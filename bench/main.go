// Command bench is the repository's benchmark: six closed-loop workloads
// driven through the exported APIs of internal/..., five end-to-end metrics
// per workload, and a traced mode that adds per-layer probes. README.md in
// this directory says what every number means and why it is measured the
// way it is. Run it from this directory:
//
//	go run . [-workload NAME] [-seed N] [-trace 1] [-quick]
//	go run . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var o options
	name := flag.String("workload", "", "run one workload (default: all six)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are made from")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "nominal measuring time; op counts scale by seconds/10")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and out/<workload>.trace.json")
	flag.BoolVar(&o.quick, "quick", false, "5% of the op counts, for smoke tests; numbers are not comparable")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of full runs and compare their medians against the bounds")
	flag.Parse()
	o.trace = *trace != 0
	if flag.NArg() > 0 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(runSelfcheck(o))
	}
	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []*workload{w}
	}
	if o.quick {
		fmt.Println("# -quick: 5% of the op counts. These numbers are NOT comparable with a full run.")
	}
	var results []*result
	for _, w := range run {
		r, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		results = append(results, r)
		for _, d := range r.defs {
			fmt.Printf("%s/%s %.6g %s\n", w.name, d.name, r.Metrics[d.name], d.unit)
		}
		fmt.Printf("%s/ops %d ops_failed %d\n", w.name, r.Attempted, r.Failed)
	}
	if err := writeResults(results, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	// The last line is the machine-readable report of the last workload run
	// (the only one, under -workload).
	fmt.Println(results[len(results)-1].reportLine())
}

type reportMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportLine is the one-object summary a driver reads from the last line.
func (r *result) reportLine() string {
	ms := map[string]reportMetric{}
	for _, d := range r.defs {
		ms[d.name] = reportMetric{r.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]reportMetric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

// writeResults keeps the run in out/results.json. This change defines the
// benchmark and claims no gain, which the file states.
func writeResults(results []*result, o options) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Seed    int64     `json:"seed"`
		Seconds int       `json:"seconds"`
		Traced  bool      `json:"traced"`
		Quick   bool      `json:"quick"`
		Results []*result `json:"results"`
		Claim   *string   `json:"claim"`
	}{o.seed, o.seconds, o.trace, o.quick, results, nil}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", "results.json"), append(b, '\n'), 0o644)
}
