package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"casvm/internal/core"
	"casvm/internal/data"
)

// workload is one closed-loop traffic mix. Counts and sizes are frozen here:
// nothing about a run is derived from how long something took, so every
// exact counter repeats from run to run.
type workload struct {
	name string
	// ops is the number of timed ops of a full run (-seconds = runSeconds).
	ops int
	// block is how many consecutive ops of one client last ≈ 50 ms, the
	// unit CPU time is sampled over.
	block   int
	clients int
	// items per op: training samples, or predictions per request.
	items int
	setup func(w *workload, seed int64, tr *tracer) (instance, error)
}

// runSeconds is the nominal measuring time the op counts below were sized
// for on a quiet host; -seconds scales them in proportion.
const runSeconds = 10

// setupReps is how many times a full run sets the workload up from scratch:
// once before the first op, the rest at even intervals between blocks of ops
// (each discarded at once), so that the repetitions see the host at as many
// of its speeds as the ops do. setup_s is the median of the repetitions, each
// restated at the host's reference speed.
const setupReps = 16

func denseMixture(name string, train, test int) data.MixtureSpec {
	return data.MixtureSpec{
		Name: name, Train: train, Test: test, Features: 32, Clusters: 8,
		Separation: 6, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.03, Margin: 1, Seed: 2015,
	}
}

var workloads = []*workload{
	{
		name: "dissmo-dense", ops: 200, block: 1, clients: 1, items: 640,
		setup: setupTrain(trainSpec{method: core.MethodDisSMO, p: 4, accFloor: 0.80,
			mix: denseMixture("dissmo-dense", 640, 2000)}),
	},
	{
		name: "casvm-dense", ops: 200, block: 1, clients: 1, items: 3600,
		setup: setupTrain(trainSpec{method: core.MethodFCFSCA, p: 8, accFloor: 0.90,
			mix: denseMixture("casvm-dense", 3600, 2000)}),
	},
	{
		name: "casvm-sparse", ops: 200, block: 1, clients: 1, items: 1500,
		setup: setupTrain(trainSpec{method: core.MethodFCFSCA, p: 8, accFloor: 0.90,
			mix: data.MixtureSpec{
				Name: "casvm-sparse", Train: 1500, Test: 1500, Features: 2048, Clusters: 6,
				Separation: 8, Noise: 1, PosFrac: []float64{0.6}, LabelNoise: 0.008, Margin: 0.8,
				Sparse: true, Density: 0.02, Seed: 2015,
			}}),
	},
	{
		name: "cluster-remote", ops: 200, block: 1, clients: 1, items: clusterMixture.Train,
		setup: setupCluster,
	},
	{
		name: "serve-batch", ops: 5120, block: 16, clients: 1, items: 256,
		setup: setupServe(serveSpec{name: "serve-batch", queries: 256, binary: true, bodies: 20}),
	},
	{
		name: "serve-single", ops: 8000, block: 16, clients: 2, items: 1,
		setup: setupServe(serveSpec{name: "serve-single", queries: 1, binary: false, bodies: 2000}),
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are the run's flags.
type options struct {
	seed    int64
	seconds int
	trace   bool
	quick   bool
}

// opsFor scales the workload's frozen count by the requested run length
// (and by 1/20 under -quick, 1/5 for the traced run).
func (o options) opsFor(w *workload) int {
	n := w.ops * o.seconds / runSeconds
	if o.quick {
		n /= 20
	}
	if o.trace {
		n /= 5
	}
	if min := 5 * w.block * w.clients; n < min {
		n = min
	}
	return n
}

// result is one workload's report.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Ops       int                `json:"ops"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	defs      []metricDef
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }

// runWorkload measures one workload. Timed work runs on one proc: the ranks
// of a training job are goroutines standing in for nodes, so at one proc
// wall time is total work and the Go scheduler drops out of the number.
func runWorkload(w *workload, o options) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if o.trace {
		return runTraced(w, o)
	}
	reps := setupReps
	if o.quick {
		reps = 1
	}
	var setupMs []float64
	setUp := func() (instance, error) {
		calib, cpu0, t0 := calibrate(), cpuNow(), time.Now()
		inst, err := w.setup(w, o.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		wall, cpu := time.Since(t0), cpuNow()-cpu0
		calib = (calib + calibrate()) / 2
		setupMs = append(setupMs, atRefSpeed(ms(wall), ms(cpu), calib))
		return inst, nil
	}
	inst, err := setUp()
	if err != nil {
		return nil, err
	}
	defer inst.close()
	var again error
	s := measure(inst, w, o.opsFor(w), nil, func() {
		extra, err := setUp()
		if err != nil {
			again = err
			return
		}
		extra.close()
		runtime.GC() // the discarded instance is not the next op's garbage
	}, reps-1)
	if again != nil {
		return nil, again
	}
	// Per block, at the host's reference speed: the wall time of one client's
	// op, during which the one proc did clients × blockCPUMs of work.
	opMs := make([]float64, len(s.blockMs))
	for b := range s.blockMs {
		opMs[b] = atRefSpeed(s.blockMs[b], float64(w.clients)*s.blockCPUMs[b], s.calibMs[b])
	}
	op := median(opMs)
	return &result{
		Workload: w.name, Seed: o.seed, Ops: s.ops, Attempted: s.attempted, Failed: s.failed, defs: endToEnd,
		Metrics: map[string]float64{
			"setup_s":         median(setupMs) / 1e3,
			"op_ms":           op,
			"items_per_s":     float64(w.clients*w.items) * 1000 / op,
			"alloc_mb_per_op": float64(s.allocBytes) / 1e6 / float64(s.ops),
			"accuracy_pct":    inst.accuracyPct(),
		},
	}, nil
}

// runTraced produces the per-layer metrics: an untraced run with the
// workload's own clients (the load.* and host.* diagnostics), then the same
// ops from one client with a span around every call into a layer and a
// staged replay after every op, then the layer probes. The spans go to
// out/<workload>.trace.json.
func runTraced(w *workload, o options) (*result, error) {
	tr := newTracer()
	inst, err := w.setup(w, o.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	ops := o.opsFor(w)
	plain := measure(inst, w, ops, nil, nil, 0)
	single := *w
	single.clients = 1
	traced := measure(inst, &single, ops, tr, nil, 0)

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	sortedOps := sorted(plain.opMs)
	m["load.op_min_ms"] = sortedOps[0]
	m["load.op_p10_ms"] = quantile(sortedOps, 0.10)
	m["load.op_p50_ms"] = quantile(sortedOps, 0.50)
	m["load.op_p95_ms"] = quantile(sortedOps, 0.95)
	m["load.op_max_ms"] = sortedOps[len(sortedOps)-1]
	m["load.cpu_ms_per_op"] = median(plain.blockCPUMs)
	m["load.items_per_s_mean"] = float64(plain.ops*w.items) / plain.elapsed.Seconds()
	m["load.ops"] = float64(plain.attempted + traced.attempted)
	m["load.ops_failed"] = float64(plain.failed + traced.failed)
	m["host.calib_p10_ms"] = p10(plain.calibMs)
	m["host.calib_p50_over_p10"] = median(plain.calibMs) / p10(plain.calibMs)
	m["bench.trace_overhead_pct"] = 100 * (quiet(traced.opMs) - quiet(plain.opMs)) / quiet(plain.opMs)
	if err := inst.probe(tr, o.quick, m); err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0 // a ratio over a count this workload does not have
		}
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join("out", w.name+".trace.json"), w.name, o.seed); err != nil {
		return nil, err
	}
	return &result{
		Workload: w.name, Seed: o.seed, Ops: plain.ops + traced.ops,
		Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed,
		Metrics: m, defs: perLayer,
	}, nil
}
