package fleet

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"testing"

	"casvm/internal/trace"
)

// FuzzFleetFrames feeds the package what a rank's exec frames can carry once
// the coordinator has accepted them: a timeline of any shape (the JSON of a
// rank-done frame's spans section) for a rank of a job of any claimed width,
// merged twice — the second time as if the rank had moved to a worker whose
// clock is off by epoch ns, so its stamps are — and epoch durations of any
// value, entered in one job's table. Nothing may panic: each merge returns,
// with an error or a timeline whose every edge has recv ≥ send and that
// writes as a Chrome trace, and every verdict names a rank beyond the factor
// of a median above the noise floor. Run with
// `go test -fuzz FuzzFleetFrames ./internal/telemetry/fleet` for extended
// exploration; the seed corpus (testdata/fuzz plus the seeds below) runs in
// normal test mode and in `make fuzz-smoke`.
func FuzzFleetFrames(f *testing.F) {
	js := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	type section struct {
		Events []trace.Event    `json:"events,omitempty"`
		Edges  []trace.FlowEdge `json:"edges,omitempty"`
	}
	spans := js(section{
		Events: []trace.Event{
			mkEvent(0, trace.CatSolver, "smo", 1000, 500),
			mkEvent(0, trace.CatCollective, "allreduce", 1500, 100),
		},
		Edges: []trace.FlowEdge{{ID: linkEdgeID(1, 1), Src: 1, Dst: 0, Bytes: 64, SendWallNs: 1200, RecvWallNs: 1400}},
	})
	for _, s := range []struct {
		p, rank int
		spans   []byte
		epoch   int
		sec     float64
	}{
		{2, 0, spans, 0, 0.25},
		{2, 1, spans, 1, 0.5},
		{2, 0, nil, 0, 0.001},
		{1, 0, js(section{Edges: []trace.FlowEdge{{Src: 7, Dst: -3, SendWallNs: math.MaxInt64, RecvWallNs: math.MinInt64}}}), 0, 1e300},
		{3, -1, spans, -5, -1},
		{1 << 16, 1<<16 - 1, spans, 1 << 30, 3},
		{2, 0, []byte(`{not json`), 0, 0},
		// Stamps at the ends of the int64 range, both ways between two ranks.
		{2, 0, js(section{Events: []trace.Event{mkEvent(0, trace.CatSolver, "smo", 1000, 500)}, Edges: []trace.FlowEdge{
			{ID: 1, Src: 1, Dst: 0, SendWallNs: math.MinInt64, RecvWallNs: math.MaxInt64},
			{ID: 2, Src: 0, Dst: 1, SendWallNs: math.MaxInt64, RecvWallNs: math.MinInt64},
			{ID: 3, Src: 0, Dst: 1, SendWallNs: 0, RecvWallNs: math.MaxInt64},
		}}), math.MaxInt32, 1},
		{2, 1, js(section{Edges: []trace.FlowEdge{
			{ID: 1, Src: 0, Dst: 1, SendWallNs: math.MaxInt64, RecvWallNs: math.MaxInt64 - 1},
			{ID: 2, Src: 1, Dst: 0, SendWallNs: math.MinInt64, RecvWallNs: math.MinInt64 + 1},
		}}), math.MinInt32, 1},
	} {
		f.Add(s.p, s.rank, s.spans, s.epoch, s.sec)
	}
	f.Fuzz(func(t *testing.T, p, rank int, spans []byte, epoch int, sec float64) {
		var s section
		_ = json.Unmarshal(spans, &s) // a section that does not parse ships nothing
		// The coordinator holds a job's width to its gang; a merge sizes
		// its per-rank tables by it.
		if p >= 1 && p <= 1<<16 && rank >= 0 && rank < p {
			ranks := make([]Rank, p)
			for moved := range 2 {
				ranks[rank] = Rank{Events: s.Events, Edges: s.Edges}
				if moved == 1 {
					ranks[rank] = skewed(ranks[rank], int64(epoch))
				}
				tl, _, _, err := Merge(ranks)
				if err != nil {
					continue
				}
				for _, e := range tl.FlowEdges() {
					if e.RecvWallNs < e.SendWallNs || e.RecvVirtSec < e.SendVirtSec {
						t.Fatalf("exported edge %+v has recv before send", e)
					}
				}
				_ = tl.WriteChromeTrace(io.Discard)
			}
		}
		var tab Epochs
		for r := 0; r < 3; r++ {
			for _, v := range tab.Observe("j", rank+r, epoch, sec*float64(r+1)) {
				if v.Sec <= stragglerFactor*v.MedianSec || v.MedianSec < stragglerMinSec {
					t.Fatalf("verdict %+v", v)
				}
			}
		}
	})
}

// skewed returns rk as a worker whose clock reads off ns later stamps it: its
// events and its receives move, wrapping at the int64 range.
func skewed(rk Rank, off int64) Rank {
	out := Rank{Events: slices.Clone(rk.Events), Edges: slices.Clone(rk.Edges)}
	for i := range out.Events {
		out.Events[i].WallStartNs += off
	}
	for i := range out.Edges {
		out.Edges[i].RecvWallNs += off
	}
	return out
}
