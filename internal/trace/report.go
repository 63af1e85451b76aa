package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// ReportSchema identifies the run-report JSON layout; bump it when a field
// changes meaning. v2 added the critical-path decomposition (CritPath).
const ReportSchema = "casvm.report/v2"

// MachineInfo records the α–β machine constants a run was modeled with
// (perfmodel.Machine, flattened so this package needs no import).
type MachineInfo struct {
	TcSec float64 `json:"tc_sec"` // seconds per flop
	TsSec float64 `json:"ts_sec"` // message startup
	TwSec float64 `json:"tw_sec"` // per-4-byte-word transfer
}

// SolverInfo records the hyper-parameters of a run.
type SolverInfo struct {
	C         float64 `json:"c"`
	Tol       float64 `json:"tol"`
	Kernel    string  `json:"kernel"`
	Gamma     float64 `json:"gamma,omitempty"`
	PosWeight float64 `json:"pos_weight,omitempty"`
}

// Report is the structured, machine-readable summary of one training run:
// what ran, on what modeled machine, how the time split across phases,
// what moved over the network, what failed, and what came out. It is what
// `casvm-train -report out.json` writes and what downstream tooling
// (dashboards, regression tracking) consumes.
type Report struct {
	Schema  string `json:"schema"`
	Method  string `json:"method"`
	Dataset string `json:"dataset,omitempty"`
	P       int    `json:"p"`
	Threads int    `json:"threads,omitempty"`
	Seed    int64  `json:"seed"`

	Machine MachineInfo `json:"machine"`
	Solver  SolverInfo  `json:"solver"`

	// Outcome.
	Iters      int     `json:"iters"`
	SVs        int     `json:"svs"`
	TotalFlops float64 `json:"total_flops"`
	// Dis-SMO's replicated kernel-column cache: lookups served from the
	// cache and lookups that had to ship a row and compute a column.
	ColCacheHits   int64   `json:"col_cache_hits,omitempty"`
	ColCacheMisses int64   `json:"col_cache_misses,omitempty"`
	Accuracy       float64 `json:"accuracy,omitempty"`
	ModelHash      string  `json:"model_hash,omitempty"`

	// Time split (virtual α–β seconds, plus real wall time).
	InitSec  float64 `json:"init_sec"`
	TrainSec float64 `json:"train_sec"`
	TotalSec float64 `json:"total_sec"`
	WallSec  float64 `json:"wall_sec"`
	CompSec  float64 `json:"comp_sec"`
	CommSec  float64 `json:"comm_sec"`

	// Communication (Fig 8 / Table XI).
	CommBytes  int64     `json:"comm_bytes"`
	CommOps    int64     `json:"comm_ops"`
	CommMatrix [][]int64 `json:"comm_matrix,omitempty"`

	// Per-phase split aggregated from the timeline (empty when no
	// timeline was attached).
	Phases          []PhaseStat `json:"phases,omitempty"`
	TimelineEvents  int         `json:"timeline_events,omitempty"`
	TimelineDropped int64       `json:"timeline_dropped,omitempty"`

	// Failures and recovery.
	LostRanks   []int   `json:"lost_ranks,omitempty"`
	Recoveries  int     `json:"recoveries,omitempty"`
	RecoverySec float64 `json:"recovery_sec,omitempty"`

	// Faults records the realized fault schedule of a chaos run (seed,
	// per-event rank/iter/kind), making any failure replayable from the
	// report alone (`casvm-train -replay-faults`).
	Faults *FaultsInfo `json:"faults,omitempty"`

	// Flattened metrics snapshot (Registry.Snapshot), when metrics were
	// attached.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// Critical-path decomposition of the virtual makespan (critpath
	// package), when a timeline with causal tracing was attached.
	CritPath *CritPathReport `json:"crit_path,omitempty"`
}

// CritPathReport is the critical-path decomposition embedded in a run
// report: the makespan split into the four α–β buckets, overall and per
// algorithm phase. CompSec+LatencySec+BandwidthSec+WaitSec equals
// MakespanSec up to float round-off.
type CritPathReport struct {
	MakespanSec  float64 `json:"makespan_sec"`
	EndRank      int     `json:"end_rank"`
	CompSec      float64 `json:"comp_sec"`
	LatencySec   float64 `json:"latency_sec"`
	BandwidthSec float64 `json:"bandwidth_sec"`
	WaitSec      float64 `json:"wait_sec"`
	Hops         int     `json:"hops"`
	Steps        int     `json:"steps"`

	Phases []CritPathPhase `json:"phases,omitempty"`
}

// FaultEvent is one planned or injected fault in a report's faults block.
// Kind follows the injector vocabulary: "crash-iter", "crash-send",
// "drop", "delay", "dup", "corrupt".
type FaultEvent struct {
	Kind     string  `json:"kind"`
	Rank     int     `json:"rank"`
	Dst      int     `json:"dst,omitempty"`  // receiver for message faults
	Iter     int     `json:"iter,omitempty"` // trigger iteration (crash-iter)
	Send     int     `json:"send,omitempty"` // 1-based remote-send index (message faults)
	DelaySec float64 `json:"delay_sec,omitempty"`
}

// FaultsInfo is the report's faults block: the seeded schedule that was
// configured plus the events that actually fired, with the recovery policy
// that handled them. Schedule alone is enough to replay the run.
type FaultsInfo struct {
	Seed            int64        `json:"seed"`
	Policy          string       `json:"recovery_policy,omitempty"`
	CheckpointEvery int          `json:"checkpoint_every,omitempty"`
	Schedule        []FaultEvent `json:"schedule,omitempty"`
	Injected        []FaultEvent `json:"injected,omitempty"`
}

// FaultReporter is implemented by fault injectors (faults.Schedule's
// injector) that can describe their schedule and realized events for the
// report's faults block.
type FaultReporter interface {
	FaultsInfo() *FaultsInfo
}

// CritPathPhase is one algorithm phase's share of the critical path.
type CritPathPhase struct {
	Phase        string  `json:"phase"`
	CompSec      float64 `json:"comp_sec"`
	LatencySec   float64 `json:"latency_sec"`
	BandwidthSec float64 `json:"bandwidth_sec"`
	WaitSec      float64 `json:"wait_sec"`
}

// AttachTimeline fills the report's phase aggregation from tl (no-op for a
// nil timeline).
func (r *Report) AttachTimeline(tl *Timeline) {
	if tl == nil {
		return
	}
	r.Phases = tl.PhaseStats()
	r.TimelineEvents = len(tl.Events())
	r.TimelineDropped = tl.Dropped()
}

// AttachMetrics embeds a registry snapshot (no-op for nil).
func (r *Report) AttachMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	r.Metrics = reg.Snapshot()
}

// WriteJSON serializes the report, indented, stamping the schema id.
func (r *Report) WriteJSON(w io.Writer) error {
	r.Schema = ReportSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report written by WriteJSON, rejecting unknown
// fields and schema mismatches so drift fails loudly.
func ReadReport(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("trace: bad report: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("trace: report schema %q, want %q", r.Schema, ReportSchema)
	}
	return &r, nil
}
