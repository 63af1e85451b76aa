// Remote-execution control frames on the lease connection.
//
// The coordinator drives a remote job's gang through a small frame
// vocabulary in the 105–113 tag block (clear of the 101/102 submit pair): one
// start frame per worker is the whole of a generation's launch, then
// checkpoint and rank-done frames stream worker → coordinator until the
// generation either completes or is aborted for a re-gang. They are also a
// rank's only report stream: a checkpoint carries the epoch's wall seconds
// for the straggler detector, and a mesh rank's rank-done its timeline for
// the merged trace (internal/telemetry/fleet). Every executor also announces
// a fresh mesh listener's port, which a generation of a communicating method
// consumes: its start frame carries the rank-ordered peer table. A frame with
// a payload is an mpi.PackSections envelope — a small JSON header section,
// the payload beside it as raw sections, nothing binary quoted into JSON
// (DESIGN §6.2); abort, fail and port are the bare header.
//
// Every worker → coordinator payload (and the coordinator → worker start
// frame on the executor side) crosses a trust boundary — a lease holder is
// remote and unauthenticated — so the decoders below validate structurally
// before any field is acted on, and are fuzzed (FuzzExecFrames) with their
// corpora wired into `make fuzz-smoke`.
package cluster

import (
	"encoding/json"
	"fmt"

	"casvm/internal/core"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/smo"
	"casvm/internal/trace"
)

// Executor control-frame tags. 103–104 (mesh bootstrap), 105–107 (start,
// checkpoint, rank-done with base64 payloads) and 120–124 (the fleet frames:
// hello, spans, metrics, epoch, goodbye) are retired and never reassigned: a
// lease that still sends them is ignored like any unknown tag.
const (
	tagExecAbort    = 108 // coordinator -> worker: cancel the generation (re-gang pending)
	tagExecFail     = 109 // worker -> coordinator: a rank's solve failed
	tagExecStart    = 110 // coordinator -> worker: spec + rank assignment | resume checkpoints
	tagExecCkpt     = 111 // worker -> coordinator: one rank's progress | its epoch-boundary checkpoint
	tagExecRankDone = 112 // worker -> coordinator: one rank's profile | its trained shard, if it holds one
	tagExecPort     = 113 // worker -> coordinator: the port of its fresh mesh listener
)

// execLimits bound structurally unbounded fields so a hostile frame cannot
// make the decoder allocate past the payload it paid for.
const (
	maxExecGangWidth  = 4096    // world width and rank-list entries
	maxExecSamples    = 1 << 22 // inline mixture train+test rows
	maxExecFeatures   = 1 << 14
	maxExecModelBytes = 1 << 26 // a rank-done frame: header, spans and shard sections together
	maxExecAddrLen    = 300     // one peer-table entry, host:port
	maxExecEpochSec   = 1 << 20 // a checkpoint's epoch wall seconds (about 12 days)
)

// execStart heads the frame that launches one generation on one worker: the
// full job spec (the worker re-resolves the dataset deterministically — no
// sample data crosses the wire) and its assigned shard ranks. One section per
// entry of Ranks follows: the rank's last checkpoint, or nothing (solve from
// zero; a Final checkpoint fast-forwards a shard that already converged).
//
// A mesh generation (every method but RA-CA) sets Mesh: Spec.P is then the
// generation's width, Ranks holds this worker's one rank, and every rank
// starts from zero — its resume section is empty.
type execStart struct {
	Job  string  `json:"job"`
	Gen  int     `json:"gen"`
	Spec JobSpec `json:"spec"`

	// Ranks are the shard ranks (in [0, Spec.P)) this worker trains this
	// generation, in execution order.
	Ranks []int `json:"ranks"`

	// CheckpointEvery is the effective deposit cadence in solver
	// iterations (the coordinator applies the spec default).
	CheckpointEvery int `json:"ckpt_every"`

	// Mesh is the generation's peer table in rank order: the host each
	// worker's lease connected from and the port it announced.
	Mesh []string `json:"mesh,omitempty"`
}

// execRank heads the two frames a rank streams back. A checkpoint frame adds
// one section, the epoch-boundary solver snapshot (the resume point across
// generations), whose iteration count Iters must match; a rank-done frame
// adds the rank's timeline (execSpans, empty when nothing was recorded), then
// the model.ShardSections sections of the trained shard and its center, or
// nothing from a mesh rank that holds no model (Dis-SMO's and the tree
// methods' ranks above 0).
type execRank struct {
	Job  string `json:"job"`
	Gen  int    `json:"gen"`
	Rank int    `json:"rank"`

	Iters int `json:"iters"`
	// VirtSec is the worker's α–β-modeled virtual time consumed in this
	// generation so far (shard solves, init, checkpoint transport); the
	// coordinator prices re-gangs from the maximum it has seen.
	VirtSec float64 `json:"virt_sec"`

	// Msgs and Bytes are what a mesh rank sent while training.
	Msgs  int64 `json:"msgs,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`

	// Layers is a tree-method rank's solver iterations per layer it solved
	// (core.ShardResult.LayerIters), at most core.TreeLayers(P) entries.
	Layers []int `json:"layers,omitempty"`

	// EpochSec is a checkpoint's epoch in wall seconds: since the rank's
	// previous deposit, or since its solve started in this generation.
	EpochSec float64 `json:"epoch_sec,omitempty"`
}

// execSpans is a rank-done frame's timeline section: what a mesh rank's
// trace recorded, its spans and the flow edges of the messages it received.
type execSpans struct {
	Events []trace.Event    `json:"events,omitempty"`
	Edges  []trace.FlowEdge `json:"edges,omitempty"`
}

// execAbort cancels a generation: the worker interrupts its in-flight
// solves. Checkpoints already streamed remain valid — rank progress
// survives its generation.
type execAbort struct {
	Job    string `json:"job"`
	Gen    int    `json:"gen"`
	Reason string `json:"reason,omitempty"`
}

// execFail reports a rank solve the worker could not complete (bad spec,
// unresolvable dataset, solver error). Shard solves are deterministic, so
// no other gang would fare better: the coordinator fails the job.
type execFail struct {
	Job  string `json:"job"`
	Gen  int    `json:"gen"`
	Rank int    `json:"rank"`
	Err  string `json:"error"`
}

// execPort announces an executor's fresh mesh listener. The coordinator pairs
// the port with the host the worker's lease connected from.
type execPort struct {
	Port int `json:"port"`
}

func marshalExec(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("cluster: exec frame marshal: %v", err)) // all frame types are marshalable
	}
	return b
}

// encodeExecStart frames m with each assigned rank's checkpoint, if any.
func encodeExecStart(m execStart, resume map[int][]byte) []byte {
	secs := make([][]byte, 1, 1+len(m.Ranks))
	secs[0] = marshalExec(m)
	for _, r := range m.Ranks {
		secs = append(secs, resume[r])
	}
	return mpi.PackSections(secs...)
}

func encodeExecCkpt(h execRank, blob []byte) []byte {
	return mpi.PackSections(marshalExec(h), blob)
}

// encodeExecSpans is the timeline section of a rank-done frame: nil when tl
// recorded nothing.
func encodeExecSpans(tl *trace.Timeline) ([]byte, error) {
	s := execSpans{Events: tl.Events(), Edges: tl.FlowEdges()}
	if len(s.Events)+len(s.Edges) == 0 {
		return nil, nil
	}
	return json.Marshal(s)
}

// encodeExecRankDone frames h with the rank's timeline section and its shard;
// a nil m sends no shard.
func encodeExecRankDone(h execRank, spans []byte, m *model.Model, center []float64) []byte {
	secs := [][]byte{marshalExec(h), spans}
	if m != nil {
		secs = append(secs, model.EncodeShard(m, center)...)
	}
	return mpi.PackSections(secs...)
}

// execIdent validates the (job, gen) pair every frame carries.
func execIdent(job string, gen int) error {
	if job == "" || len(job) > 256 {
		return fmt.Errorf("cluster: exec frame names no job")
	}
	if gen < 1 || gen > 1<<20 {
		return fmt.Errorf("cluster: exec frame generation %d out of range", gen)
	}
	return nil
}

// decodeExecStart returns the header and each resumed rank's checkpoint.
func decodeExecStart(b []byte) (execStart, map[int]*smo.Checkpoint, error) {
	var m execStart
	secs, err := mpi.UnpackSections(b, mpi.AnyCount)
	if err != nil || len(secs) == 0 {
		return m, nil, fmt.Errorf("cluster: bad start frame: %d sections (%v)", len(secs), err)
	}
	if err := json.Unmarshal(secs[0], &m); err != nil {
		return m, nil, fmt.Errorf("cluster: bad start frame: %w", err)
	}
	if err := execIdent(m.Job, m.Gen); err != nil {
		return m, nil, err
	}
	s := m.Spec
	if s.P < 1 || s.P > maxExecGangWidth {
		return m, nil, fmt.Errorf("cluster: start frame world width %d out of range", s.P)
	}
	if sp := s.Mixture; sp != nil {
		if sp.Train < 1 || sp.Train+sp.Test > maxExecSamples ||
			sp.Features < 1 || sp.Features > maxExecFeatures {
			return m, nil, fmt.Errorf("cluster: start frame mixture %dx%d out of range", sp.Train+sp.Test, sp.Features)
		}
	} else if s.Dataset == "" {
		return m, nil, fmt.Errorf("cluster: start frame names no dataset")
	}
	if len(m.Ranks) < 1 || len(m.Ranks) > s.P {
		return m, nil, fmt.Errorf("cluster: start frame assigns %d ranks of %d", len(m.Ranks), s.P)
	}
	seen := map[int]bool{}
	for _, r := range m.Ranks {
		if r < 0 || r >= s.P || seen[r] {
			return m, nil, fmt.Errorf("cluster: start frame shard rank %d invalid for p=%d", r, s.P)
		}
		seen[r] = true
	}
	if m.CheckpointEvery < 1 || m.CheckpointEvery > 1<<24 {
		return m, nil, fmt.Errorf("cluster: start frame checkpoint cadence %d out of range", m.CheckpointEvery)
	}
	if m.Mesh != nil {
		if len(m.Mesh) != s.P || len(m.Ranks) != 1 {
			return m, nil, fmt.Errorf("cluster: start frame peer table of %d entries assigns %d ranks of %d", len(m.Mesh), len(m.Ranks), s.P)
		}
		for _, a := range m.Mesh {
			if a == "" || len(a) > maxExecAddrLen {
				return m, nil, fmt.Errorf("cluster: start frame peer address of %d bytes", len(a))
			}
		}
	}
	if len(secs) != 1+len(m.Ranks) {
		return m, nil, fmt.Errorf("cluster: start frame carries %d resume sections for %d ranks", len(secs)-1, len(m.Ranks))
	}
	resume := map[int]*smo.Checkpoint{}
	for i, r := range m.Ranks {
		if len(secs[1+i]) == 0 {
			continue
		}
		if m.Mesh != nil {
			return m, nil, fmt.Errorf("cluster: mesh start frame resumes rank %d", r)
		}
		if resume[r], err = smo.DecodeCheckpoint(secs[1+i]); err != nil {
			return m, nil, fmt.Errorf("cluster: start frame resume for rank %d: %w", r, err)
		}
	}
	return m, resume, nil
}

// decodeExecRank parses and bounds a checkpoint or rank-done header.
func decodeExecRank(kind string, hdr []byte) (execRank, error) {
	var h execRank
	if err := json.Unmarshal(hdr, &h); err != nil {
		return h, fmt.Errorf("cluster: bad %s frame: %w", kind, err)
	}
	if err := execIdent(h.Job, h.Gen); err != nil {
		return h, err
	}
	if h.Rank < 0 || h.Rank >= maxExecGangWidth {
		return h, fmt.Errorf("cluster: %s frame rank %d out of range", kind, h.Rank)
	}
	if h.Iters < 0 || h.VirtSec < 0 || h.Msgs < 0 || h.Bytes < 0 {
		return h, fmt.Errorf("cluster: %s frame with negative progress", kind)
	}
	if !(h.EpochSec >= 0 && h.EpochSec <= maxExecEpochSec) {
		return h, fmt.Errorf("cluster: %s frame epoch of %g seconds out of range", kind, h.EpochSec)
	}
	if len(h.Layers) > core.TreeLayers(maxExecGangWidth) {
		return h, fmt.Errorf("cluster: %s frame reports %d tree layers", kind, len(h.Layers))
	}
	for _, it := range h.Layers {
		if it < 0 {
			return h, fmt.Errorf("cluster: %s frame with negative progress", kind)
		}
	}
	return h, nil
}

// decodeExecCkpt returns the header and the checkpoint blob, which aliases b.
func decodeExecCkpt(b []byte) (execRank, []byte, error) {
	secs, err := mpi.UnpackSections(b, 2)
	if err != nil {
		return execRank{}, nil, fmt.Errorf("cluster: bad checkpoint frame: %w", err)
	}
	h, err := decodeExecRank("checkpoint", secs[0])
	if err != nil {
		return h, nil, err
	}
	ck, err := smo.DecodeCheckpoint(secs[1])
	if err != nil {
		return h, nil, fmt.Errorf("cluster: checkpoint frame blob: %w", err)
	}
	if ck.Iters != h.Iters {
		return h, nil, fmt.Errorf("cluster: checkpoint frame iters %d disagree with blob %d", h.Iters, ck.Iters)
	}
	return h, secs[1], nil
}

// decodeExecRankDone returns the header, the timeline section and the
// shard's sections (none from a rank without a model), all still encoded: the
// owning job decodes them (decodeExecSpans, Job.decodeShard).
func decodeExecRankDone(b []byte) (execRank, []byte, [][]byte, error) {
	if len(b) > maxExecModelBytes {
		return execRank{}, nil, nil, fmt.Errorf("cluster: rank-done frame of %d bytes out of range", len(b))
	}
	secs, err := mpi.UnpackSections(b, mpi.AnyCount)
	if err == nil && len(secs) != 2 && len(secs) != 2+model.ShardSections {
		err = fmt.Errorf("%d sections", len(secs))
	}
	if err != nil {
		return execRank{}, nil, nil, fmt.Errorf("cluster: bad rank-done frame: %w", err)
	}
	h, err := decodeExecRank("rank-done", secs[0])
	return h, secs[1], secs[2:], err
}

// decodeExecSpans parses and bounds a rank-done frame's timeline section:
// no more events and edges than a worker's trace records, every event on the
// reporting rank, and every edge a message that rank received from a rank
// in the gang-width range.
func decodeExecSpans(h execRank, b []byte) (execSpans, error) {
	var s execSpans
	if len(b) == 0 {
		return s, nil
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("cluster: bad rank-done spans: %w", err)
	}
	if len(s.Events) > trace.DefaultMaxEventsPerRank || len(s.Edges) > trace.DefaultMaxFlowsPerRank {
		return s, fmt.Errorf("cluster: rank-done spans of %d events and %d edges", len(s.Events), len(s.Edges))
	}
	for _, e := range s.Events {
		if e.Rank != h.Rank {
			return s, fmt.Errorf("cluster: rank %d shipped an event of rank %d", h.Rank, e.Rank)
		}
	}
	for _, e := range s.Edges {
		if e.Dst != h.Rank || e.Src < 0 || e.Src >= maxExecGangWidth {
			return s, fmt.Errorf("cluster: rank %d shipped an edge %d -> %d", h.Rank, e.Src, e.Dst)
		}
	}
	return s, nil
}

func decodeExecAbort(b []byte) (execAbort, error) {
	var m execAbort
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("cluster: bad abort frame: %w", err)
	}
	return m, execIdent(m.Job, m.Gen)
}

func decodeExecPort(b []byte) (execPort, error) {
	var m execPort
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("cluster: bad port frame: %w", err)
	}
	if m.Port < 1 || m.Port > 65535 {
		return m, fmt.Errorf("cluster: port frame announces port %d", m.Port)
	}
	return m, nil
}

func decodeExecFail(b []byte) (execFail, error) {
	var m execFail
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("cluster: bad fail frame: %w", err)
	}
	if err := execIdent(m.Job, m.Gen); err != nil {
		return m, err
	}
	if m.Err == "" || len(m.Err) > 4096 {
		return m, fmt.Errorf("cluster: fail frame carries no error")
	}
	return m, nil
}
