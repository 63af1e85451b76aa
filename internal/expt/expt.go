// Package expt is the experiment harness: one runner per table and figure
// of the paper's evaluation (§III–§V), each printing the same rows/series
// the paper reports, computed from this repository's implementation.
// cmd/casvm-bench drives it; EXPERIMENTS.md records its output.
package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/perfmodel"
	"casvm/internal/smo"
	"casvm/internal/trace"
)

// Config tunes an experiment run.
type Config struct {
	// Out receives the experiment's report.
	Out io.Writer
	// Scale multiplies every dataset's registered size (1.0 = default).
	Scale float64
	// P is the rank count for the fixed-size experiments (default 8).
	P int
	// MaxP bounds the processor sweep of the scaling experiments
	// (default 64; sweeps run 8,16,…,MaxP).
	MaxP int
	// Seed offsets all run seeds for variance studies.
	Seed int64
	// Reports, when non-nil, collects a structured run report for every
	// training run the experiments perform (`casvm-bench -report`). Nil
	// keeps all runs on the zero-instrumentation path.
	Reports *ReportSink
	// Metrics, when non-nil, is a registry shared across every training
	// run (casvm-bench -serve points /metrics at it). It overrides the
	// per-run fresh registry that Reports alone would attach.
	Metrics *trace.Registry
	// Telemetry, when non-nil, receives per-iteration solver samples from
	// every run — the live feed behind `casvm-bench -serve`'s /events.
	Telemetry *smo.TelemetryRing
}

// ReportSink accumulates structured run reports (trace.Report) from every
// training run an experiment performs; safe for concurrent adds.
type ReportSink struct {
	mu   sync.Mutex
	reps []*trace.Report
}

func (s *ReportSink) add(r *trace.Report) {
	s.mu.Lock()
	s.reps = append(s.reps, r)
	s.mu.Unlock()
}

// Len returns how many reports have been collected.
func (s *ReportSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reps)
}

// Snapshot returns the reports collected so far (the live /report body
// while `casvm-bench -serve` is running).
func (s *ReportSink) Snapshot() []*trace.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*trace.Report{}, s.reps...)
}

// WriteJSON writes the collected reports as one indented JSON array.
func (s *ReportSink) WriteJSON(w io.Writer) error {
	s.mu.Lock()
	reps := append([]*trace.Report{}, s.reps...)
	s.mu.Unlock()
	for _, r := range reps {
		r.Schema = trace.ReportSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reps)
}

// train is the harness's single entry into core.Train: when Config.Reports
// is set it attaches observability sinks to the run and records the built
// report (annotated with the dataset name); otherwise it is a plain call.
func train(cfg Config, dataset string, x *la.Matrix, y []float64, pr core.Params) (*core.Output, error) {
	if cfg.Reports != nil {
		pr.Timeline = trace.NewTimeline(pr.P)
		pr.Metrics = trace.NewRegistry()
	}
	if cfg.Metrics != nil {
		pr.Metrics = cfg.Metrics
	}
	pr.Telemetry = cfg.Telemetry
	out, err := core.Train(x, y, pr)
	if err != nil {
		return nil, err
	}
	if cfg.Reports != nil {
		rep, err := core.BuildReport(out, pr, dataset, 0)
		if err != nil {
			return nil, err
		}
		cfg.Reports.add(rep)
	}
	return out, nil
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.P <= 0 {
		c.P = 8
	}
	if c.MaxP < 8 {
		c.MaxP = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Runner executes one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(cfg Config) error
}

// Runners returns every experiment in paper order.
func Runners() []Runner {
	return []Runner{
		{"table3", "Iterations vs samples (epsilon, forest)", Table3},
		{"table4", "Iso-efficiency functions", Table4},
		{"table5", "8-node 4-layer Cascade profile (toy)", Table5},
		{"table6", "FCFS: balanced data ≠ balanced load (face)", Table6},
		{"table7", "FCFS per-node class/SV ratios (face)", Table7},
		{"table8", "Ratio-balanced FCFS per-node ratios (face)", Table8},
		{"table9", "Balanced data + ratio = balanced load (face)", Table9},
		{"table10", "Communication volume: model vs measured (ijcnn)", Table10},
		{"table11", "Efficiency of communication (ijcnn)", Table11},
		{"table12", "The test datasets", Table12},
		{"table13", "adult: 8 methods", DatasetTable("adult")},
		{"table14", "face: 8 methods", DatasetTable("face")},
		{"table15", "gisette: 8 methods", DatasetTable("gisette")},
		{"table16", "ijcnn: 8 methods", DatasetTable("ijcnn")},
		{"table17", "usps: 8 methods", DatasetTable("usps")},
		{"table18", "webspam: 8 methods", DatasetTable("webspam")},
		{"table19", "Strong scaling time (epsilon)", Table19},
		{"table20", "Strong scaling efficiency (epsilon)", Table20},
		{"table21", "Weak scaling time (epsilon)", Table21},
		{"table22", "Weak scaling efficiency (epsilon)", Table22},
		{"fig5", "Partition sizes: K-means vs FCFS (face)", Fig5},
		{"fig7", "Load balance: CP-SVM vs CA-SVM (epsilon)", Fig7},
		{"fig8", "Communication patterns, 6 methods (toy)", Fig8},
		{"fig9", "Computation/communication ratio (toy)", Fig9},
	}
}

// Find returns the runner with the given id.
func Find(id string) (Runner, error) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("expt: unknown experiment %q", id)
}

// RunAll executes every experiment in order.
func RunAll(cfg Config) error {
	for _, r := range Runners() {
		if err := RunOne(r, cfg); err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
	}
	return nil
}

// RunOne executes a single experiment under a header on cfg.Out. Its wall
// time goes to stderr, so cfg.Out holds only what the run computes and
// repeats byte for byte (experiments_raw.txt is that output).
func RunOne(r Runner, cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(cfg.Out, "\n=== %s — %s ===\n", r.ID, r.Title)
	t0 := time.Now()
	if err := r.Run(cfg); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[%s completed in %.1fs wall]\n", r.ID, time.Since(t0).Seconds())
	return nil
}

// loadScaled loads a registered dataset at the config's scale.
func loadScaled(cfg Config, name string) (*data.Dataset, data.Entry, error) {
	return data.Load(name, cfg.Scale)
}

// paramsFor builds training parameters for a dataset entry. samples is the
// actual training-set size, used to rescale the machine's communication
// constants.
func paramsFor(cfg Config, m core.Method, e data.Entry, p int, samples int) core.Params {
	pr := core.DefaultParams(m, p)
	pr.C = e.C
	pr.Kernel = kernel.RBF(e.GammaOrDefault())
	pr.Seed = cfg.Seed
	pr.Machine = machineFor(samples, e.PaperSamples)
	return pr
}

// machineFor rescales the Hopper machine's communication constants by the
// ratio of the synthetic problem size to the paper's original size. The
// synthetic datasets are 10–100× smaller than the real ones, which shrinks
// per-iteration computation but not message latency; scaling ts and tw by
// the same ratio restores the communication/computation balance of the
// paper-scale problem so ratios, speedups and efficiencies keep their
// shape. See DESIGN.md §1.
func machineFor(samples, paperSamples int) perfmodel.Machine {
	h := perfmodel.Hopper()
	if paperSamples <= 0 || samples >= paperSamples {
		return h
	}
	r := float64(samples) / float64(paperSamples)
	h.Ts *= r
	h.Tw *= r
	return h
}

// sixMethods is the method list of the communication experiments and the
// scaling sweeps (the paper's Fig 8/9 and Tables XIX–XXII use RA-CA as
// "CA-SVM").
func sixMethods() []core.Method {
	return []core.Method{core.MethodDisSMO, core.MethodCascade, core.MethodDCSVM,
		core.MethodDCFilter, core.MethodCPSVM, core.MethodRACA}
}

func methodLabel(m core.Method) string {
	switch m {
	case core.MethodDisSMO:
		return "Dis-SMO"
	case core.MethodCascade:
		return "Cascade"
	case core.MethodDCSVM:
		return "DC-SVM"
	case core.MethodDCFilter:
		return "DC-Filter"
	case core.MethodCPSVM:
		return "CP-SVM"
	case core.MethodBKMCA:
		return "BKM-CA"
	case core.MethodFCFSCA:
		return "FCFS-CA"
	case core.MethodRACA:
		return "RA-CA"
	}
	return string(m)
}

// fmtBytes renders a byte count in the paper's MB style.
func fmtBytes(b int64) string {
	switch {
	case b >= 1e6:
		return fmt.Sprintf("%.1fMB", float64(b)/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1fKB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// ranksByTime returns rank indices sorted by ascending per-node time, the
// presentation order of Tables VI and IX.
func ranksByTime(times []float64) []int {
	idx := make([]int, len(times))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return times[idx[a]] < times[idx[b]] })
	return idx
}
