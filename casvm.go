// Package casvm is a from-scratch Go implementation of CA-SVM —
// communication-avoiding support vector machines on distributed systems
// (You, Demmel, Czechowski, Song, Vuduc; UCB/EECS-2015-9 / IPDPS'15) —
// together with every baseline the paper compares against: distributed SMO,
// Cascade SVM, DC-SVM, DC-Filter and CP-SVM.
//
// Training runs on an in-process message-passing runtime (one goroutine per
// rank) that measures real communication volumes and models time with α–β
// machine constants, so the paper's scaling experiments reproduce on a
// single machine. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the per-table results.
//
// Quick start:
//
//	ds, entry, _ := casvm.LoadDataset("ijcnn", 1.0)
//	p := casvm.DefaultParams(casvm.MethodRACA, 8)
//	p.Kernel = casvm.RBF(entry.GammaOrDefault())
//	out, _ := casvm.Train(ds.X, ds.Y, p)
//	fmt.Println(out.Set.Accuracy(ds.TestX, ds.TestY), out.Stats.TotalSec)
package casvm

import (
	"fmt"
	"os"

	"casvm/internal/compress"
	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/multiclass"
	"casvm/internal/perfmodel"
	"casvm/internal/smo"
	"casvm/internal/trace"
)

// Method names one of the eight training algorithms.
type Method = core.Method

// The trainable methods, in the paper's presentation order.
const (
	MethodDisSMO   = core.MethodDisSMO   // distributed SMO (Cao et al.)
	MethodCascade  = core.MethodCascade  // Cascade SVM (Graf et al.)
	MethodDCSVM    = core.MethodDCSVM    // Divide-and-Conquer SVM (Hsieh et al.)
	MethodDCFilter = core.MethodDCFilter // DC-Filter (§III-B)
	MethodCPSVM    = core.MethodCPSVM    // Clustering-Partition SVM (§IV-A)
	MethodBKMCA    = core.MethodBKMCA    // CA-SVM, balanced-K-means partition
	MethodFCFSCA   = core.MethodFCFSCA   // CA-SVM, FCFS partition
	MethodRACA     = core.MethodRACA     // CA-SVM, random-average partition
)

// Placement selects the casvm1/casvm2 initial data placement of Fig 9.
type Placement = core.Placement

// Placement values.
const (
	PlacementDistributed = core.PlacementDistributed // casvm2: blocks resident on nodes
	PlacementRoot        = core.PlacementRoot        // casvm1: all data starts on rank 0
)

// Params configures a training run; see core.Params for field docs.
type Params = core.Params

// Stats is the measured profile of a training run.
type Stats = core.Stats

// Output bundles a trained model set with its run statistics.
type Output = core.Output

// Recovery configures checkpoint/restart fault recovery; see core.Recovery.
type Recovery = core.Recovery

// RecoveryPolicy selects what the supervising driver does when a rank dies.
type RecoveryPolicy = core.RecoveryPolicy

// Recovery policies.
const (
	RecoverOff     = core.RecoverOff     // no supervision: a crash fails the run
	RecoverRespawn = core.RecoverRespawn // restart the lost rank from the last checkpoint
	RecoverShrink  = core.RecoverShrink  // rebuild the world without the lost rank
)

// ParseRecoveryPolicy resolves a policy name ("off", "respawn", "shrink").
func ParseRecoveryPolicy(s string) (RecoveryPolicy, error) {
	return core.ParseRecoveryPolicy(s)
}

// Matrix is the sample container (dense or CSR sparse).
type Matrix = la.Matrix

// Model is a single trained binary SVM.
type Model = model.Model

// ModelSet is the per-partition model collection with center routing.
type ModelSet = model.Set

// Dataset is a labelled train/test pair.
type Dataset = data.Dataset

// DatasetEntry describes a registered benchmark dataset.
type DatasetEntry = data.Entry

// MixtureSpec configures the synthetic dataset generator.
type MixtureSpec = data.MixtureSpec

// Kernel selects and parameterises the kernel function.
type Kernel = kernel.Params

// Machine holds the α–β machine model constants (tc, ts, tw).
type Machine = perfmodel.Machine

// NewDenseMatrix wraps row-major data (length m*n) as a dense sample
// matrix. The slice is retained, not copied.
func NewDenseMatrix(m, n int, rowMajor []float64) *Matrix {
	return la.NewDense(m, n, rowMajor)
}

// NewSparseMatrix wraps CSR data as a sparse sample matrix (see
// la.NewSparse for the invariants).
func NewSparseMatrix(m, n int, rowptr, idx []int32, val []float64) *Matrix {
	return la.NewSparse(m, n, rowptr, idx, val)
}

// Timeline records per-rank span events (collectives, solver phases,
// kernel-row fills). Attach one to Params.Timeline, then export with
// WriteChromeTrace (chrome://tracing / Perfetto) or aggregate with
// PhaseStats.
type Timeline = trace.Timeline

// MetricsRegistry collects counters, gauges and histograms from a run;
// attach one to Params.Metrics. Expose with WriteProm (Prometheus text).
type MetricsRegistry = trace.Registry

// RunReport is the structured summary written by `casvm-train -report`.
type RunReport = trace.Report

// TelemetryRing buffers per-iteration solver telemetry (dual objective,
// KKT gap, SV count); attach one to Params.Telemetry. The
// `-serve` flag of casvm-train streams it over SSE.
type TelemetryRing = smo.TelemetryRing

// IterSample is one iteration's convergence snapshot from the telemetry
// ring.
type IterSample = smo.IterSample

// NewTimeline creates a timeline for a p-rank run.
func NewTimeline(p int) *Timeline { return trace.NewTimeline(p) }

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return trace.NewRegistry() }

// NewTelemetryRing creates a telemetry ring holding the last n samples
// (n ≤ 0 means 1024).
func NewTelemetryRing(n int) *TelemetryRing { return smo.NewTelemetryRing(n) }

// BuildReport assembles the structured run report for a finished run; see
// trace.Report. dataset and accuracy annotate the report (zero values are
// omitted from the JSON).
func BuildReport(out *Output, p Params, dataset string, accuracy float64) (*RunReport, error) {
	return core.BuildReport(out, p, dataset, accuracy)
}

// Methods returns every trainable method in presentation order.
func Methods() []Method { return core.Methods() }

// ParseMethod resolves a method name such as "ra-ca".
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// DefaultParams returns ready-to-use parameters for the method on p ranks
// (Hopper-like machine constants, C=1, RBF kernel).
func DefaultParams(m Method, p int) Params { return core.DefaultParams(m, p) }

// RBF returns Gaussian-kernel parameters with the given γ.
func RBF(gamma float64) Kernel { return kernel.RBF(gamma) }

// Hopper returns NERSC-Hopper-like machine constants (the default).
func Hopper() Machine { return perfmodel.Hopper() }

// Edison returns NERSC-Edison-like machine constants.
func Edison() Machine { return perfmodel.Edison() }

// Train runs the configured method over (x, y) and returns the trained
// model set and run statistics. Labels must be ±1; use DatasetFromLIBSVM or
// the generator to build inputs.
func Train(x *Matrix, y []float64, p Params) (*Output, error) {
	return core.Train(x, y, p)
}

// TrainDataset trains on ds and reports the held-out accuracy alongside the
// run output.
func TrainDataset(ds *Dataset, p Params) (*Output, float64, error) {
	out, err := core.Train(ds.X, ds.Y, p)
	if err != nil {
		return nil, 0, err
	}
	acc := 0.0
	if ds.TestX != nil {
		acc = out.Set.Accuracy(ds.TestX, ds.TestY)
	}
	return out, acc, nil
}

// DatasetNames lists the registered benchmark datasets (Table XII plus
// "forest" and "toy").
func DatasetNames() []string { return data.Names() }

// LoadDataset generates the named registered dataset at the given scale
// (1.0 = registered size).
func LoadDataset(name string, scale float64) (*Dataset, DatasetEntry, error) {
	return data.Load(name, scale)
}

// GenerateDataset materialises a custom synthetic spec.
func GenerateDataset(spec MixtureSpec) (*Dataset, error) { return data.Generate(spec) }

// DatasetFromLIBSVM reads a LIBSVM-format file into a training-only
// dataset, binarizing labels at > 0.
func DatasetFromLIBSVM(path string, minFeatures int) (*Dataset, error) {
	x, y, err := data.LoadLIBSVMFile(path, minFeatures)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Name: path, X: x, Y: data.Binarize(y, 0)}
	return d, d.Validate()
}

// PredictDistributed runs the paper's Alg 6 prediction flow over a
// simulated world: queries route from rank 0 to the node holding the
// nearest center's model, labels gather back. The returned Stats shows the
// (small) communication this costs.
func PredictDistributed(set *ModelSet, q *Matrix, machine Machine, seed int64) ([]float64, Stats, error) {
	return core.PredictDistributed(set, q, machine, seed)
}

// MulticlassScheme selects the binary reduction for K-class training.
type MulticlassScheme = multiclass.Scheme

// Multiclass reduction schemes (§II-A: a multiclass SVM is a set of
// independent binary SVMs).
const (
	OneVsRest = multiclass.OneVsRest
	OneVsOne  = multiclass.OneVsOne
)

// MulticlassModel is a trained K-class classifier.
type MulticlassModel = multiclass.Model

// TrainMulticlass fits a K-class model on (x, y) with arbitrary numeric
// class labels; every constituent binary machine trains with params.
func TrainMulticlass(x *Matrix, y []float64, params Params, scheme MulticlassScheme) (*MulticlassModel, error) {
	return multiclass.Train(x, y, params, scheme)
}

// GenerateMulticlassDataset draws a clustered K-class synthetic dataset
// (labels 0 … classes−1).
func GenerateMulticlassDataset(spec MixtureSpec, classes int) (trainX *Matrix, trainY []float64, testX *Matrix, testY []float64, err error) {
	return data.GenerateMulticlass(spec, classes)
}

// WriteLIBSVMFile writes (ds.X, ds.Y) to path in LIBSVM text format.
func WriteLIBSVMFile(path string, ds *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := data.WriteLIBSVM(f, ds.X, ds.Y); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SaveModelSet writes a trained model set to path in the casvm text model
// format.
func SaveModelSet(path string, s *ModelSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := model.SaveSet(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadModelSet reads a model set written by SaveModelSet.
func LoadModelSet(path string) (*ModelSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := model.LoadSet(f)
	if err != nil {
		return nil, fmt.Errorf("casvm: load %s: %w", path, err)
	}
	return s, nil
}

// CompressOptions configures the support-vector compression pass (centroid
// budgeting plus small-α pruning); see compress.Options for field docs.
type CompressOptions = compress.Options

// CompressionStats summarises a compression pass (SV counts before/after,
// per-model detail).
type CompressionStats = compress.Stats

// CompressModelSet shrinks a trained model set to at most o.Budget support
// vectors per partition model, re-weighting the survivors by a reduced-set
// least-squares fit so the decision surface tracks the full model.
func CompressModelSet(s *ModelSet, o CompressOptions) (*ModelSet, CompressionStats, error) {
	return compress.Set(s, o)
}

// AnnotateCompression measures full vs compressed accuracy on (q, y) and
// embeds the delta in the compressed set's metadata, so serving layers can
// surface the trade-off the model file carries.
func AnnotateCompression(compressed, full *ModelSet, q *Matrix, y []float64) (fullAcc, compressedAcc float64) {
	return compress.Annotate(compressed, full, q, y)
}
