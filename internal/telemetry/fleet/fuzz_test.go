package fleet

import (
	"encoding/json"
	"io"
	"math"
	"testing"

	"casvm/internal/trace"
)

// FuzzFleetFrames feeds the package what a rank's exec frames can carry once
// the coordinator has accepted them: a timeline of any shape (the JSON of a
// rank-done frame's spans section) for a rank of a job of any claimed width,
// merged twice — the second time as if the rank had moved to a worker whose
// clock is off by epoch ns — and epoch durations of any value, entered in one
// job's table. Nothing may panic: each merge returns, with an error or a
// timeline that writes as a Chrome trace, and every verdict names a rank
// beyond the factor of a median above the noise floor. Run with
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
			for _, off := range []int64{0, int64(epoch)} {
				ranks[rank] = Rank{Events: s.Events, Edges: s.Edges, OffsetNs: off}
				if tl, _, _, err := Merge(ranks); err == nil {
					_ = tl.WriteChromeTrace(io.Discard)
				}
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
