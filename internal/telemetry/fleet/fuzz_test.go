package fleet

import (
	"encoding/json"
	"io"
	"math"
	"testing"

	"casvm/internal/trace"
)

// FuzzFleetFrames feeds the collector what a rank's exec frames can carry
// once the coordinator has accepted them: a timeline of any shape (the JSON
// of a rank-done frame's spans section) for a rank of a job of any claimed
// width, stored twice — the second time as if the rank had moved to another
// worker — and epoch durations of any value. Neither call may panic, and
// every reader of the state they leave — the job list, the merged timeline
// and its Chrome trace — must return, with an error or without. Run with
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
		Edges: []trace.FlowEdge{{ID: tcpEdgeID(1, 1), Src: 1, Dst: 0, Bytes: 64, SendWallNs: 1200, RecvWallNs: 1400}},
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
		c := New(Config{Metrics: trace.NewRegistry()})
		var s section
		_ = json.Unmarshal(spans, &s) // a section that does not parse stores nothing
		c.StoreSpans("j", rank, p, 1, s.Events, s.Edges)
		c.StoreSpans("j", rank, p, 2, s.Events, s.Edges)
		for r := 0; r < 3; r++ {
			c.ObserveEpoch("j", rank+r, epoch, sec*float64(r+1))
		}
		c.Events(0)
		c.HasTrace("j")
		_ = c.WriteMergedTrace("j", io.Discard)
		c.Forget("j")
		if len(c.Jobs()) != 0 || len(c.det.epochs) != 0 {
			t.Fatal("forget left state behind")
		}
	})
}
