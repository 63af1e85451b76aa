package fleet

import (
	"sort"
	"time"
)

// The straggler verdict's thresholds. The heuristic follows the
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

// StragglerEvent is one verdict, published on the coordinator's SSE stream
// and counted by its cluster_straggler_* metrics.
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

// Epochs is one job's epoch table: each epoch's per-rank durations and the
// verdicts already raised. Observe flags outliers incrementally: every report
// recomputes that epoch's median and flags any not-yet-flagged rank beyond
// the threshold (including ranks reported before the median shifted). The
// zero value is an empty table; its owner serializes the calls.
type Epochs struct {
	secs    map[int]map[int]float64 // epoch → rank → sec
	flagged map[[2]int]bool         // (epoch, rank)
}

// Observe records one (rank, epoch, sec) report of job and returns any new
// straggler verdicts it produces.
func (t *Epochs) Observe(job string, rank, epoch int, sec float64) []StragglerEvent {
	if t.secs == nil {
		t.secs, t.flagged = map[int]map[int]float64{}, map[[2]int]bool{}
	}
	ranks := t.secs[epoch]
	if ranks == nil {
		ranks = map[int]float64{}
		t.secs[epoch] = ranks
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

	var out []StragglerEvent
	now := time.Now().UnixNano()
	for r, s := range ranks {
		key := [2]int{epoch, r}
		if s <= stragglerFactor*median || t.flagged[key] {
			continue
		}
		t.flagged[key] = true
		out = append(out, StragglerEvent{
			TimeNs: now, Job: job, Rank: r, Epoch: epoch,
			Sec: s, MedianSec: median, Factor: s / median,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}
