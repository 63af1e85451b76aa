package fleet

import (
	"sort"
	"sync"
	"time"
)

// The online detector's thresholds. The heuristic follows the
// adaptive-shrinking literature (1406.5161): within a gang, per-epoch
// durations are near-identical unless a rank is straggling, so a rank whose
// epoch runs beyond stragglerFactor × the gang median is flagged.
const (
	stragglerFactor = 1.75
	// stragglerMinRanks is how many rank reports one epoch needs before its
	// median is trusted.
	stragglerMinRanks = 3
	// stragglerMinSec ignores epochs whose median is below this floor:
	// sub-millisecond epochs are all scheduler noise.
	stragglerMinSec = 1e-3
)

// StragglerEvent is one detector verdict, published on the SSE stream and
// counted by the coordinator's cluster_straggler_* metrics.
type StragglerEvent struct {
	TimeNs    int64   `json:"time_ns"`
	Job       string  `json:"job"`
	Rank      int     `json:"rank"`
	Epoch     int     `json:"epoch"`
	Sec       float64 `json:"sec"`
	MedianSec float64 `json:"median_sec"`
	// Factor is Sec/MedianSec — how far beyond the gang this rank ran.
	Factor float64 `json:"factor"`
}

// detector keeps per-(job, epoch) duration maps and flags outliers
// incrementally: every report recomputes that epoch's median and flags any
// not-yet-flagged rank beyond the threshold (including ranks reported
// before the median shifted).
type detector struct {
	mu      sync.Mutex
	epochs  map[string]map[int]map[int]float64 // job → epoch → rank → sec
	flagged map[string]map[[2]int]bool         // job → (epoch, rank)
}

func newDetector() *detector {
	return &detector{
		epochs:  map[string]map[int]map[int]float64{},
		flagged: map[string]map[[2]int]bool{},
	}
}

// observe records one (job, rank, epoch, sec) report and returns any new
// straggler verdicts it produces.
func (d *detector) observe(job string, rank, epoch int, sec float64) []StragglerEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	je := d.epochs[job]
	if je == nil {
		je = map[int]map[int]float64{}
		d.epochs[job] = je
	}
	ranks := je[epoch]
	if ranks == nil {
		ranks = map[int]float64{}
		je[epoch] = ranks
	}
	ranks[rank] = sec

	if len(ranks) < stragglerMinRanks {
		return nil
	}
	durs := make([]float64, 0, len(ranks))
	for _, s := range ranks {
		durs = append(durs, s)
	}
	sort.Float64s(durs)
	median := durs[len(durs)/2]
	if len(durs)%2 == 0 {
		median = (durs[len(durs)/2-1] + durs[len(durs)/2]) / 2
	}
	if median < stragglerMinSec {
		return nil
	}

	fl := d.flagged[job]
	if fl == nil {
		fl = map[[2]int]bool{}
		d.flagged[job] = fl
	}
	var out []StragglerEvent
	now := time.Now().UnixNano()
	for r, s := range ranks {
		if s <= stragglerFactor*median {
			continue
		}
		key := [2]int{epoch, r}
		if fl[key] {
			continue
		}
		fl[key] = true
		out = append(out, StragglerEvent{
			TimeNs: now, Job: job, Rank: r, Epoch: epoch,
			Sec: s, MedianSec: median, Factor: s / median,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// forget drops a finished job's detector state.
func (d *detector) forget(job string) {
	d.mu.Lock()
	delete(d.epochs, job)
	delete(d.flagged, job)
	d.mu.Unlock()
}

// eventRing is a fixed-capacity cursor-paged buffer of straggler events —
// the backing store of the fleet SSE stream, mirroring the shape of
// smo.TelemetryRing (monotonic cursors survive wrap-around; a lagging
// reader loses the overwritten prefix, never sees duplicates).
type eventRing struct {
	mu    sync.Mutex
	buf   []StragglerEvent
	start uint64 // cursor of buf[0]
	max   int
}

func newEventRing(max int) *eventRing {
	return &eventRing{max: max}
}

func (r *eventRing) add(e StragglerEvent) {
	r.mu.Lock()
	r.buf = append(r.buf, e)
	if len(r.buf) > r.max {
		drop := len(r.buf) - r.max
		r.buf = append(r.buf[:0], r.buf[drop:]...)
		r.start += uint64(drop)
	}
	r.mu.Unlock()
}

// since returns events at cursors ≥ cursor and the next cursor to poll
// from. A cursor before the retained window skips to its start.
func (r *eventRing) since(cursor uint64) ([]StragglerEvent, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.start + uint64(len(r.buf))
	if cursor < r.start {
		cursor = r.start
	}
	if cursor >= end {
		return nil, end
	}
	out := append([]StragglerEvent(nil), r.buf[cursor-r.start:]...)
	return out, end
}
