package cluster

import (
	"strings"
	"testing"

	"casvm/internal/core"
	"casvm/internal/smo"
)

// Frame-kind selectors for the fuzz corpus: one per exec decoder.
const (
	fzStart = iota
	fzCkpt
	fzRankDone
	fzAbort
	fzFail
	fzKinds
)

// fuzzCheckpointBlob is a small valid solver checkpoint for seeds that
// must clear the blob validation layer.
func fuzzCheckpointBlob(iters int) []byte {
	ck := &smo.Checkpoint{
		Iters: iters,
		Alpha: []float64{0, 0.5, 1},
		F:     []float64{-1, 0.25, 1},
	}
	return ck.Encode()
}

// fuzzStartFrame is a fully valid execStart seed: the richest frame, with
// a nested spec, rank assignment and resume blob.
func fuzzStartFrame() []byte {
	return marshalExec(execStart{
		Job: "fz", Gen: 1,
		Spec: JobSpec{
			ID: "fz", Mixture: testMixture(64),
			Method: string(core.MethodRACA), P: 2, Seed: 1, Policy: "shrink",
		},
		Ranks:           []int{0, 1},
		Resume:          map[int][]byte{1: fuzzCheckpointBlob(8)},
		CheckpointEvery: 4,
	})
}

// FuzzExecFrames drives every remote-execution frame decoder with hostile
// payloads. These decoders sit on the trust boundary — each frame arrives
// from an unauthenticated lease holder — so none may panic, and whatever
// they accept must re-validate cleanly after a marshal round-trip (no
// "valid once, invalid forever" frames that a coordinator would relay or
// log and a later consumer would choke on). Run with `go test -fuzz
// FuzzExecFrames ./internal/cluster` for extended exploration; the seed
// corpus runs in normal test mode and in `make fuzz-smoke`.
func FuzzExecFrames(f *testing.F) {
	type seed struct {
		kind byte
		in   []byte
	}
	seeds := []seed{
		// Valid frames of every kind: the fuzzer mutates from working
		// structure instead of rediscovering JSON.
		{fzStart, fuzzStartFrame()},
		{fzCkpt, marshalExec(execCkpt{Job: "fz", Gen: 2, Rank: 1, Iters: 8, VirtSec: 0.5, Blob: fuzzCheckpointBlob(8)})},
		{fzRankDone, marshalExec(execRankDone{Job: "fz", Gen: 1, Rank: 0, Iters: 9, SVs: 3, VirtSec: 1, Model: []byte("m"), Center: []float64{0.5, -1}})},
		{fzAbort, marshalExec(execAbort{Job: "fz", Gen: 3, Reason: "re-gang"})},
		{fzFail, marshalExec(execFail{Job: "fz", Gen: 1, Rank: 0, Err: "boom"})},
		// Hostile shapes the validators must reject without panicking.
		{fzStart, nil},
		{fzAbort, []byte(`{"job":"","gen":0}`)},
		{fzStart, []byte(`{"job":"fz","gen":1,"spec":{"p":-1}}`)},
		// Keys of the retired mesh bootstrap are unknown fields now: ignored,
		// and gone after the round-trip.
		{fzStart, []byte(`{"job":"fz","gen":1,"spec":{"p":2,"dataset":"x"},"peers":["a"],"mesh_rank":7,"ranks":[0],"ckpt_every":4}`)},
		{fzStart, []byte(`{"job":"fz","gen":1,"spec":{"p":2,"dataset":"x"},"ranks":[0,0],"ckpt_every":4}`)},
		{fzStart, []byte(`{"job":"fz","gen":1,"spec":{"p":2,"dataset":"x"},"ranks":[],"ckpt_every":4}`)},
		{fzStart, []byte(`{"job":"fz","gen":1,"spec":{"p":2,"dataset":"x"},"ranks":[0],"ckpt_every":0}`)},
		{fzStart, []byte(`{"job":"fz","gen":1,"spec":{"p":2,"dataset":"x"},"ranks":[0],"resume":{"1":"AAAA"},"ckpt_every":4}`)},
		{fzStart, []byte(`{"job":"fz","gen":1,"spec":{"p":2,"mixture":{"train":0,"features":8}},"ranks":[0],"ckpt_every":4}`)},
		{fzRankDone, []byte(`{"job":"fz","gen":1,"rank":4096,"iters":1,"model":"bQ==","center":[1]}`)},
		{fzCkpt, []byte(`{"job":"fz","gen":1,"rank":0,"iters":5,"blob":"AAAA"}`)},
		{fzCkpt, []byte(`{"job":"fz","gen":1,"rank":-3,"iters":0}`)},
		{fzRankDone, []byte(`{"job":"fz","gen":1,"rank":0,"iters":1,"model":"","center":[]}`)},
		{fzFail, []byte(`{"job":"fz","gen":1,"error":""}`)},
		{fzAbort, []byte(`{not json`)},
	}
	for _, s := range seeds {
		f.Add(s.kind, s.in)
	}
	f.Fuzz(func(t *testing.T, kind byte, in []byte) {
		switch kind % fzKinds {
		case fzStart:
			if m, err := decodeExecStart(in); err == nil {
				mustReDecode(t, func(b []byte) error { _, err := decodeExecStart(b); return err }, marshalExec(m))
			}
		case fzCkpt:
			if m, err := decodeExecCkpt(in); err == nil {
				mustReDecode(t, func(b []byte) error { _, err := decodeExecCkpt(b); return err }, marshalExec(m))
			}
		case fzRankDone:
			if m, err := decodeExecRankDone(in); err == nil {
				mustReDecode(t, func(b []byte) error { _, err := decodeExecRankDone(b); return err }, marshalExec(m))
			}
		case fzAbort:
			if m, err := decodeExecAbort(in); err == nil {
				mustReDecode(t, func(b []byte) error { _, err := decodeExecAbort(b); return err }, marshalExec(m))
			}
		case fzFail:
			if m, err := decodeExecFail(in); err == nil {
				mustReDecode(t, func(b []byte) error { _, err := decodeExecFail(b); return err }, marshalExec(m))
			}
		}
	})
}

func mustReDecode(t *testing.T, decode func([]byte) error, b []byte) {
	t.Helper()
	if err := decode(b); err != nil {
		t.Fatalf("accepted frame fails after marshal round-trip: %v", err)
	}
}

// TestExecFrameRoundTrips pins the coordinator↔executor wire contract:
// every frame the sender-side marshals must decode back field-identical.
func TestExecFrameRoundTrips(t *testing.T) {
	got, err := decodeExecStart(fuzzStartFrame())
	if err != nil {
		t.Fatalf("start round-trip: %v", err)
	}
	if got.Spec.P != 2 || len(got.Ranks) != 2 || got.CheckpointEvery != 4 {
		t.Fatalf("start round-trip dropped fields: %+v", got)
	}
	ck, err := smo.DecodeCheckpoint(got.Resume[1])
	if err != nil || ck.Iters != 8 {
		t.Fatalf("start resume blob did not survive: %v", err)
	}

	// A sender that still writes the retired peers/mesh_rank keys is
	// understood — unknown fields, not an error — and every bound that
	// remains still bites.
	const head = `{"job":"rt","gen":1,"spec":{"p":2,"dataset":"x"},`
	if m, err := decodeExecStart([]byte(head + `"peers":["a"],"mesh_rank":7,"ranks":[0],"ckpt_every":4}`)); err != nil {
		t.Fatalf("start frame with retired keys rejected: %v", err)
	} else if b := string(marshalExec(m)); strings.Contains(b, "peers") || strings.Contains(b, "mesh_rank") {
		t.Fatalf("retired keys survived the round-trip: %s", b)
	}
	for _, tail := range []string{
		`"ranks":[],"ckpt_every":4}`,
		`"ranks":[0,0],"ckpt_every":4}`,
		`"ranks":[2],"ckpt_every":4}`,
		`"ranks":[0],"ckpt_every":0}`,
		`"ranks":[0],"resume":{"1":"AAAA"},"ckpt_every":4}`,
		`"ranks":[0],"resume":{"0":"AAAA"},"ckpt_every":4}`,
	} {
		if _, err := decodeExecStart([]byte(head + tail)); err == nil {
			t.Errorf("hostile start frame accepted: %s", tail)
		}
	}

	ckpt := execCkpt{Job: "rt", Gen: 1, Rank: 0, Iters: 8, VirtSec: 0.25, Blob: fuzzCheckpointBlob(8)}
	gotCk, err := decodeExecCkpt(marshalExec(ckpt))
	if err != nil || gotCk.Iters != 8 || gotCk.VirtSec != 0.25 {
		t.Fatalf("checkpoint round-trip: %+v, %v", gotCk, err)
	}
	// The iters field is cross-checked against the blob, not trusted.
	ckpt.Iters = 9
	if _, err := decodeExecCkpt(marshalExec(ckpt)); err == nil {
		t.Fatal("checkpoint frame with iters disagreeing with its blob was accepted")
	}

	fail := execFail{Job: "rt", Gen: 1, Rank: 1, Err: "no such dataset"}
	if got, err := decodeExecFail(marshalExec(fail)); err != nil || got != fail {
		t.Fatalf("fail round-trip: %+v, %v", got, err)
	}
}

// TestRankDoneModelBound: the rank-done decoder caps the model payload —
// an unauthenticated lease must not be able to drive coordinator
// allocations up to the transport's 1GB frame ceiling.
func TestRankDoneModelBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a >64MB frame")
	}
	big := execRankDone{
		Job: "rt", Gen: 1, Rank: 0, Iters: 1, SVs: 1,
		Model: make([]byte, maxExecModelBytes+1), Center: []float64{1},
	}
	if _, err := decodeExecRankDone(marshalExec(big)); err == nil {
		t.Fatal("rank-done frame with an oversize model accepted")
	}
}
