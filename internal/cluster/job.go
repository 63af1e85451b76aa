package cluster

import (
	"encoding/json"
	"fmt"
	"sync"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/telemetry/fleet"
	"casvm/internal/trace"
)

// JobSpec is a serializable training request: everything a coordinator
// needs to reproduce a run, and nothing tied to the submitting process.
// Datasets are named registry entries or inline synthetic specs so the
// spec stays a few hundred bytes on the wire.
type JobSpec struct {
	// ID labels the job; the coordinator suffixes it for uniqueness.
	ID string `json:"id,omitempty"`

	// SubmitKey is a client-chosen idempotency key: a resubmission
	// carrying a key the coordinator has already accepted attaches to the
	// existing job instead of starting a second run. Retrying clients
	// (SubmitWithRetry) use it so a transport failure after the submit
	// frame landed cannot double-run the work. "" = every submit is a new
	// job.
	SubmitKey string `json:"submit_key,omitempty"`

	// Dataset names a registered synthetic dataset (data.Names), scaled
	// by Scale (0 = 1.0). Mixture, when set, wins over Dataset and
	// generates a custom synthetic set instead.
	Dataset string            `json:"dataset,omitempty"`
	Scale   float64           `json:"scale,omitempty"`
	Mixture *data.MixtureSpec `json:"mixture,omitempty"`

	Method string `json:"method"`
	P      int    `json:"p"`

	C       float64 `json:"c,omitempty"`     // 0 = 1.0
	Gamma   float64 `json:"gamma,omitempty"` // 0 = per-dataset heuristic
	Tol     float64 `json:"tol,omitempty"`   // 0 = 1e-3
	MaxIter int     `json:"max_iter,omitempty"`
	Seed    int64   `json:"seed,omitempty"` // 0 = the DefaultParams seed

	// Policy is the recovery policy, "shrink" or "respawn"; "" = shrink,
	// the policy under which lease churn is survivable and reversible.
	// "off" is refused: a worker's death is a real fault, and a job must
	// survive it. CheckpointEvery is the snapshot cadence (0 = 64).
	Policy          string `json:"policy,omitempty"`
	CheckpointEvery int    `json:"ckpt_every,omitempty"`

	// Remote is accepted and ignored: every job runs its ranks in the
	// worker processes holding its gang's leases. The repository benchmark
	// (bench/cluster.go) still sets it; ROADMAP item 1 removes the field
	// together with that line.
	Remote bool `json:"remote,omitempty"`
}

func (s JobSpec) policy() core.RecoveryPolicy {
	if s.Policy == "" {
		return core.RecoverShrink
	}
	pol, err := core.ParseRecoveryPolicy(s.Policy)
	if err != nil {
		return core.RecoverShrink
	}
	return pol
}

// validate rejects specs the coordinator could not run, short of
// materialising the dataset (trainParams does that, once).
func (s JobSpec) validate() error {
	if _, err := core.ParseMethod(s.Method); err != nil {
		return err
	}
	if s.P < 1 {
		return fmt.Errorf("cluster: job needs p >= 1, got %d", s.P)
	}
	if len(s.SubmitKey) > 128 {
		return fmt.Errorf("cluster: submit key of %d bytes out of range", len(s.SubmitKey))
	}
	if s.Policy != "" {
		if _, err := core.ParseRecoveryPolicy(s.Policy); err != nil {
			return err
		}
	}
	if s.Mixture == nil && s.Dataset == "" {
		return fmt.Errorf("cluster: job names no dataset")
	}
	if s.policy() == core.RecoverOff {
		return fmt.Errorf("cluster: a job needs a recovery policy (shrink or respawn)")
	}
	return nil
}

// generateMixture builds an inline synthetic dataset; a variable so a test
// can count how often a job materialises its data.
var generateMixture = data.Generate

// datasetMemo holds the dataset its owner — a coordinator, an executor —
// resolved last, so a re-gang or the next job over the same data builds
// nothing. One entry, keyed by the spec's dataset fields; the lock is held
// across a build. Callers share the dataset read-only: the one field a Matrix
// writes lazily, its row-norm cache, is filled before the dataset is stored.
type datasetMemo struct {
	mu    sync.Mutex
	key   string
	ds    *data.Dataset
	gamma float64
}

// resolve materialises the spec's dataset and the RBF gamma to use.
func (m *datasetMemo) resolve(s JobSpec) (*data.Dataset, float64, error) {
	key, err := json.Marshal([]any{s.Dataset, s.Scale, s.Mixture})
	if err != nil {
		return nil, 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ds == nil || m.key != string(key) {
		var ds *data.Dataset
		var entry data.Entry
		if s.Mixture != nil {
			ds, err = generateMixture(*s.Mixture)
		} else {
			ds, entry, err = data.Load(s.Dataset, s.Scale) // a zero Scale loads at 1.0
		}
		if err != nil {
			return nil, 0, err
		}
		ds.X.EnsureNorms()
		if ds.TestX != nil {
			ds.TestX.EnsureNorms()
		}
		m.key, m.ds, m.gamma = string(key), ds, 1/float64(ds.Features())
		if s.Mixture == nil {
			m.gamma = entry.GammaOrDefault()
		}
	}
	if s.Gamma != 0 {
		return m.ds, s.Gamma, nil
	}
	return m.ds, m.gamma, nil
}

// trainParams validates the spec, resolves its dataset and builds the core
// training parameters a coordinator runs it with. Tests reuse it to produce
// bit-identical local reference runs.
func (m *datasetMemo) trainParams(s JobSpec) (core.Params, *data.Dataset, error) {
	if err := s.validate(); err != nil {
		return core.Params{}, nil, err
	}
	method, _ := core.ParseMethod(s.Method) // validate parsed it
	ds, gamma, err := m.resolve(s)
	if err != nil {
		return core.Params{}, nil, err
	}
	if ds.X.Rows() < s.P {
		return core.Params{}, nil, fmt.Errorf("cluster: %d samples cannot feed %d ranks", ds.X.Rows(), s.P)
	}
	pr := core.DefaultParams(method, s.P)
	if s.C != 0 {
		pr.C = s.C
	}
	if s.Tol != 0 {
		pr.Tol = s.Tol
	}
	pr.MaxIter = s.MaxIter
	if s.Seed != 0 {
		pr.Seed = s.Seed
	}
	pr.Kernel = kernel.RBF(gamma)
	pr.Recovery = core.Recovery{Policy: s.policy(), CheckpointEvery: s.CheckpointEvery}
	return pr, ds, nil
}

// JobState is a job's position in the supervision lifecycle.
type JobState int

// Job lifecycle states.
const (
	JobQueued  JobState = iota // waiting for a gang of Spec.P free workers
	JobRunning                 // training on an assigned gang
	JobDone                    // finished; Result has the model fingerprint
	JobFailed                  // finished with an error; Result.Err says why
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// JobResult is the wire-serializable outcome of a job: the run profile,
// the fault/elasticity ledger, and the model fingerprint that lets any
// party check the run against a local reference.
type JobResult struct {
	ID      string `json:"id"`
	Method  string `json:"method"`
	Dataset string `json:"dataset,omitempty"`

	P      int `json:"p"`       // requested gang width
	FinalP int `json:"final_p"` // ranks the model was built from

	Iters    int     `json:"iters,omitempty"`
	SVs      int     `json:"svs,omitempty"`
	Accuracy float64 `json:"accuracy,omitempty"`
	TotalSec float64 `json:"total_sec,omitempty"` // modeled virtual time
	WallSec  float64 `json:"wall_sec,omitempty"`

	Recoveries  int    `json:"recoveries,omitempty"`
	LostRanks   []int  `json:"lost_ranks,omitempty"`
	Grows       int    `json:"grows,omitempty"`
	JoinedRanks int    `json:"joined_ranks,omitempty"`
	Generations int    `json:"generations,omitempty"` // gang generations dispatched
	ModelHash   string `json:"model_hash,omitempty"`

	// Messages and Bytes are what the job's mesh ranks sent while
	// training, summed over the generation that finished it.
	Messages int64 `json:"messages,omitempty"`
	Bytes    int64 `json:"bytes,omitempty"`

	Err string `json:"error,omitempty"`
}

// Job is one supervised training run inside a coordinator: its lifecycle,
// its gang, its generations and its ranks' telemetry. All mutable state is
// guarded by the owning coordinator's lock, and every change to it
// broadcasts cond; the accessors take the lock, and the unexported methods
// that read or change that state are called with it held.
type Job struct {
	c    *Coordinator
	id   string
	spec JobSpec

	// params and ds are the spec resolved once at Submit; the job
	// goroutine reads them and finishJob drops the dataset.
	params         core.Params
	ds             *data.Dataset
	rows, features int  // of the job's dataset: what a returned shard is held to
	mesh           bool // a communicating method: each generation is a tcpmpi mesh

	metrics *trace.Registry // per-job namespace: recoveries, grows, straggler verdicts
	done    chan struct{}
	cond    *sync.Cond // on c.mu: wakes the supervisor

	// guarded by c.mu
	state  JobState
	gang   []int // live worker ids assigned to this job
	result *JobResult
	fatal  string

	gen        int
	genActive  bool
	genBase    float64
	genWorkers []int         // assignment order of the active generation
	assign     map[int][]int // worker id -> assigned shard ranks (active gen)
	lost       bool          // an active-generation worker died
	width      int           // ranks the model is built from: Spec.P, or the mesh generation's width

	ckptBlob    map[int][]byte
	ckptIters   map[int]int
	doneRank    map[int]*core.ShardResult
	msgs, bytes int64 // summed over doneRank's headers

	spans  map[int]fleet.Rank // doneRank's shipped timelines, those not empty
	epochs fleet.Epochs       // the ranks' epoch seconds and the verdicts raised

	base       float64 // virtual-time origin of the next generation
	maxVirt    float64 // highest α–β virtual time any rank reached
	recoveries int
	grows      int
	joined     int
	lostRanks  []int
}

func newJob(c *Coordinator, id string, spec JobSpec, pr core.Params, ds *data.Dataset) *Job {
	return &Job{
		c: c, id: id, spec: spec, params: pr, ds: ds,
		rows: ds.X.Rows(), features: ds.Features(),
		mesh:    spec.Method != string(core.MethodRACA),
		metrics: trace.NewRegistry(),
		done:    make(chan struct{}),
		cond:    sync.NewCond(&c.mu),
		state:   JobQueued,
		width:   spec.P,

		ckptBlob:  map[int][]byte{},
		ckptIters: map[int]int{},
		doneRank:  map[int]*core.ShardResult{},
		spans:     map[int]fleet.Rank{},
	}
}

// ID returns the coordinator-assigned unique job id.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches JobDone or JobFailed.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's lifecycle state.
func (j *Job) State() JobState {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	return j.state
}

// Gang returns the worker ids currently backing the job.
func (j *Job) Gang() []int {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	return append([]int(nil), j.gang...)
}

// Result returns the job outcome, or nil while the job is queued or
// running.
func (j *Job) Result() *JobResult {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	return j.result
}

// Metrics is the job's private metrics registry (its recovery, grow and
// straggler-verdict counters) — one namespace per job for the telemetry
// server.
func (j *Job) Metrics() *trace.Registry { return j.metrics }
