package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the enclosing span (-1 at top level); spans of one op share Op.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine; a nil tracer records nothing, so the untraced run pays one
// nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// setOp labels subsequently opened spans with the op's id (-1 = set-up or
// probe work outside any op).
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// do runs f inside a span and returns how long f took. It measures even
// when t is nil, so callers get stage times from the untraced path too.
func (t *tracer) do(name string, f func()) time.Duration {
	if t == nil {
		s := time.Now()
		f()
		return time.Since(s)
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	s := time.Now()
	f()
	e := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].StartNs = s.Sub(t.t0).Nanoseconds()
	t.spans[id].EndNs = e.Sub(t.t0).Nanoseconds()
	return e.Sub(s)
}

// selfNs returns each span's duration minus the time its children cover.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	SelfMs   map[string]float64 `json:"self_ms_by_name"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	byName := map[string]float64{}
	for i, ns := range selfNs(t.spans) {
		byName[t.spans[i].Name] += float64(ns) / 1e6
	}
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, SelfMs: byName})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// byOp returns, for every op that has spans called name, their total in ms,
// in op order. Set-up and probe spans (op -1) are left out.
func (t *tracer) byOp(name string) []float64 {
	idx := map[int]int{}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name || s.Op < 0 {
			continue
		}
		k, ok := idx[s.Op]
		if !ok {
			k = len(out)
			idx[s.Op] = k
			out = append(out, 0)
		}
		out[k] += s.ms()
	}
	return out
}

// total returns the summed duration in ms of every span called name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.ms()
		}
	}
	return sum
}
