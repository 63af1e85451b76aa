package serve

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"casvm/internal/model"
)

// Snapshot is one immutable loaded model version. Batches capture exactly
// one Snapshot at flush time and evaluate every query in the batch against
// it, so a concurrent hot-reload can never tear a batch across versions —
// the swap is a single atomic pointer store, and the superseded Snapshot
// stays alive (and correct) until the last in-flight batch holding it
// finishes. That *is* the drain: no locks, no barriers, no torn reads.
type Snapshot struct {
	Set        *model.Set
	Generation uint64 // 1 for the initial load, +1 per reload
	Path       string // source file ("" for in-memory sets)
	ModelHash  string // the set's fingerprint, model.Set.Hash, as training reports it
	LoadedAt   time.Time
}

// Handle is one named model slot in the registry: an atomic pointer to the
// current Snapshot plus the batcher that serves it. The batcher pointer is
// atomic because the handle becomes visible through the registry before the
// server attaches its batcher.
type Handle struct {
	Name    string
	cur     atomic.Pointer[Snapshot]
	gen     atomic.Uint64
	batcher atomic.Pointer[Batcher]
}

// Snapshot returns the current model version (never nil after registration).
func (h *Handle) Snapshot() *Snapshot { return h.cur.Load() }

// Batcher returns the attached batcher (nil until the server wires one).
func (h *Handle) Batcher() *Batcher { return h.batcher.Load() }

// swap installs a new model set as the next generation, fingerprinted once
// here so every surface reports the hash of the job that trained it.
func (h *Handle) swap(set *model.Set, path string) *Snapshot {
	s := &Snapshot{
		Set:        set,
		Generation: h.gen.Add(1),
		Path:       path,
		ModelHash:  set.Hash(),
		LoadedAt:   time.Now(),
	}
	h.cur.Store(s)
	return s
}

// Registry maps model names to handles. Lookup is read-locked; the model
// pointer inside each handle is lock-free, so the predict hot path never
// contends with loads.
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]*Handle
	reloads func() // observability hook (counter); may be nil
}

// NewRegistry creates an empty model registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]*Handle{}} }

// Get returns the named handle.
func (r *Registry) Get(name string) (*Handle, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.byName[name]
	return h, ok
}

// Resolve maps a request's model name to a handle: an explicit name must
// exist; "" selects the sole loaded model, falling back to "default".
func (r *Registry) Resolve(name string) (*Handle, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.byName) == 1 {
			for _, h := range r.byName {
				return h, nil
			}
		}
		name = "default"
	}
	h, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q (have %v)", name, r.namesLocked())
	}
	return h, nil
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

func (r *Registry) namesLocked() []string {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handles returns every handle, sorted by name.
func (r *Registry) Handles() []*Handle {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Handle, 0, len(r.byName))
	for _, n := range r.namesLocked() {
		out = append(out, r.byName[n])
	}
	return out
}

// register inserts or returns the named handle.
func (r *Registry) register(name string) *Handle {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.byName[name]; ok {
		return h
	}
	h := &Handle{Name: name}
	r.byName[name] = h
	return h
}

// AddSet registers (or hot-swaps) an in-memory model set under name.
func (r *Registry) AddSet(name string, set *model.Set) (*Handle, *Snapshot, error) {
	if err := validateSet(set); err != nil {
		return nil, nil, err
	}
	h := r.register(name)
	s := h.swap(set, "")
	if r.reloads != nil && s.Generation > 1 {
		r.reloads()
	}
	return h, s, nil
}

// AddFile loads a model file and registers it under name. Registering an
// existing name hot-swaps it (same as Reload).
func (r *Registry) AddFile(name, path string) (*Handle, *Snapshot, error) {
	set, err := loadModelFile(path)
	if err != nil {
		return nil, nil, err
	}
	h := r.register(name)
	s := h.swap(set, path)
	if r.reloads != nil && s.Generation > 1 {
		r.reloads()
	}
	return h, s, nil
}

// Reload re-reads the handle's model from path ("" re-reads the previous
// path) and atomically swaps it in. The load and validation happen entirely
// before the swap, so a bad file leaves the serving model untouched.
func (r *Registry) Reload(h *Handle, path string) (*Snapshot, error) {
	if path == "" {
		path = h.Snapshot().Path
		if path == "" {
			return nil, fmt.Errorf("serve: model %q was loaded from memory; reload needs an explicit path", h.Name)
		}
	}
	set, err := loadModelFile(path)
	if err != nil {
		return nil, err
	}
	s := h.swap(set, path)
	if r.reloads != nil {
		r.reloads()
	}
	return s, nil
}

// loadModelFile reads, parses and validates a model file.
func loadModelFile(path string) (*model.Set, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	set, err := model.LoadSet(buf)
	if err != nil {
		return nil, fmt.Errorf("serve: load %s: %w", path, err)
	}
	if err := validateSet(set); err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	return set, nil
}

func validateSet(set *model.Set) error {
	if set == nil || set.P() == 0 {
		return fmt.Errorf("serve: empty model set")
	}
	for j, m := range set.Models {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("serve: model %d: %w", j, err)
		}
	}
	return nil
}
