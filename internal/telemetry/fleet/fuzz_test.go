package fleet

import (
	"encoding/json"
	"io"
	"testing"

	"casvm/internal/tcpmpi"
	"casvm/internal/trace"
)

// FuzzFleetFrames feeds HandleFrame what any lease holder can send the
// coordinator: a hello, then one frame of any fleet tag (120–124), both
// with arbitrary payloads. The collector must consume both without
// panicking, and every reader of the state they leave — the job list, the
// merged timeline and its Chrome trace — must return, with an error or
// without. Run with `go test -fuzz FuzzFleetFrames ./internal/telemetry/fleet`
// for extended exploration; the seed corpus (testdata/fuzz plus the seeds
// below) runs in normal test mode and in `make fuzz-smoke`.
func FuzzFleetFrames(f *testing.F) {
	js := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	hello := js(Hello{Job: "j", Rank: 0, P: 2})
	spans := SpanPayload{Job: "j", Rank: 0,
		Events: []trace.Event{
			mkEvent(0, trace.CatSolver, "smo", 1000, 500),
			mkEvent(0, trace.CatCollective, "allreduce", 1500, 100),
		},
		Edges: []trace.FlowEdge{{ID: tcpEdgeID(1, 1), Src: 1, Dst: 0, Bytes: 64, SendWallNs: 1200, RecvWallNs: 1400}},
		Done:  true,
	}
	for _, s := range []struct {
		hello   []byte
		tag     uint8
		payload []byte
	}{
		{hello, TagHello - TagHello, js(Hello{Job: "j", Rank: 1, P: 2})},
		{hello, TagSpans - TagHello, js(spans)},
		{hello, TagMetrics - TagHello, js(MetricsPayload{Job: "j", Rank: 0, Values: map[string]float64{"casvm_smo_iters": 9, "go_gc": 1}})},
		{hello, TagEpoch - TagHello, js(EpochPayload{Job: "j", Rank: 0, Epoch: 1, Sec: 0.25})},
		{hello, TagGoodbye - TagHello, hello},
		{nil, TagSpans - TagHello, []byte(`{"job":"j","rank":-1}`)},
		{[]byte(`{"job":"","rank":0}`), TagMetrics - TagHello, []byte(`{not json`)},
	} {
		f.Add(s.hello, s.tag, s.payload)
	}
	f.Fuzz(func(t *testing.T, hello []byte, tag uint8, payload []byte) {
		c := New(Config{
			Metrics:     trace.NewRegistry(),
			JobRegistry: func(string) *trace.Registry { return trace.NewRegistry() },
		})
		w := tcpmpi.WorkerInfo{ID: 1}
		if !c.HandleFrame(w, TagHello, hello) {
			t.Fatal("hello not consumed")
		}
		if ft := TagHello + int(tag)%(TagGoodbye-TagHello+1); !c.HandleFrame(w, ft, payload) {
			t.Fatalf("tag %d not consumed", ft)
		}
		for _, job := range c.Jobs() {
			c.HasTrace(job)
			_ = c.WriteMergedTrace(job, io.Discard)
			c.Forget(job)
		}
	})
}
