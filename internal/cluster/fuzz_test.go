package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"casvm/internal/core"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/smo"
)

// Frame-kind selectors for the fuzz corpus: one per exec decoder.
const (
	fzStart = iota
	fzCkpt
	fzRankDone
	fzAbort
	fzFail
	fzPort
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

// fuzzStartHeader is a fully valid execStart: the richest header, with a
// nested spec and a two-rank assignment.
func fuzzStartHeader() execStart {
	return execStart{
		Job: "fz", Gen: 1,
		Spec: JobSpec{
			ID: "fz", Mixture: testMixture(64),
			Method: string(core.MethodRACA), P: 2, Seed: 1, Policy: "shrink",
		},
		Ranks:           []int{0, 1},
		CheckpointEvery: 4,
	}
}

// fuzzMeshStart is a valid mesh start: rank 1 of a two-rank peer table.
func fuzzMeshStart() execStart {
	m := fuzzStartHeader()
	m.Spec.Method = string(core.MethodDisSMO)
	m.Ranks, m.Mesh = []int{1}, []string{"127.0.0.1:7070", "[::1]:7071"}
	return m
}

// fuzzStartFrame is the header with a resume checkpoint for its second rank.
func fuzzStartFrame() []byte {
	return encodeExecStart(fuzzStartHeader(), map[int][]byte{1: fuzzCheckpointBlob(8)})
}

// fuzzShard is a small trained shard over two features, dense or CSR.
func fuzzShard(sparse bool) (*model.Model, []float64) {
	x := la.NewDense(3, 2, []float64{1, 2, 0, -2, 3, 0})
	if sparse {
		x = la.NewSparse(3, 2, []int32{0, 2, 3, 4}, []int32{0, 1, 1, 0}, []float64{1, 2, -2, 3})
	}
	m := model.FromSolution(x, []float64{1, -1, 1}, []float64{0.5, 0.75, 0.25}, 0.1, kernel.RBF(0.5))
	return m, []float64{0.5, -1}
}

// frame packs a JSON header with raw sections, the way a hostile sender
// would: nothing checks that they belong together.
func frame(hdr string, secs ...[]byte) []byte {
	return mpi.PackSections(append([][]byte{[]byte(hdr)}, secs...)...)
}

// FuzzExecFrames drives every remote-execution frame decoder with hostile
// payloads. These decoders sit on the trust boundary — each frame arrives
// from an unauthenticated lease holder — so none may panic, and whatever
// they accept must re-validate cleanly after an encode round-trip (no
// "valid once, invalid forever" frames that a coordinator would relay or
// log and a later consumer would choke on). Run with `go test -fuzz
// FuzzExecFrames ./internal/cluster` for extended exploration; the seed
// corpus runs in normal test mode and in `make fuzz-smoke`.
func FuzzExecFrames(f *testing.F) {
	type seed struct {
		kind byte
		in   []byte
	}
	const startHead = `{"job":"fz","gen":1,"spec":{"p":2,"dataset":"x"},`
	dense, center := fuzzShard(false)
	sparse, _ := fuzzShard(true)
	done := execRank{Job: "fz", Gen: 1, Rank: 0, Iters: 9, VirtSec: 1}
	denseDone := encodeExecRankDone(done, dense, center)
	seeds := []seed{
		// Valid frames of every kind, from the encoders the senders use: the
		// fuzzer mutates from working structure instead of rediscovering it.
		{fzStart, fuzzStartFrame()},
		{fzStart, encodeExecStart(fuzzStartHeader(), nil)},
		{fzCkpt, encodeExecCkpt(execRank{Job: "fz", Gen: 2, Rank: 1, Iters: 8, VirtSec: 0.5}, fuzzCheckpointBlob(8))},
		{fzRankDone, denseDone},
		{fzRankDone, encodeExecRankDone(done, sparse, center)},
		{fzAbort, marshalExec(execAbort{Job: "fz", Gen: 3, Reason: "re-gang"})},
		{fzFail, marshalExec(execFail{Job: "fz", Gen: 1, Rank: 0, Err: "boom"})},
		{fzPort, marshalExec(execPort{Port: 7070})},
		{fzStart, encodeExecStart(fuzzMeshStart(), nil)},
		{fzRankDone, encodeExecRankDone(execRank{Job: "fz", Gen: 1, Rank: 1, Iters: 9, VirtSec: 1, Msgs: 12, Bytes: 480}, nil, nil)},
		// Hostile shapes the validators must reject without panicking.
		{fzStart, nil},
		{fzAbort, []byte(`{"job":"","gen":0}`)},
		{fzStart, frame(`{"job":"fz","gen":1,"spec":{"p":-1}}`)},
		// The retired encoding — bare JSON with base64 payloads — is not an
		// envelope; a section count nobody paid for is not one either.
		{fzStart, []byte(startHead + `"ranks":[0],"resume":{"0":"AAAA"},"ckpt_every":4}`)},
		{fzRankDone, []byte{0xff, 0xff, 0xff, 0xff}},
		// Keys of the retired mesh bootstrap are unknown fields now: ignored,
		// and gone after the round-trip.
		{fzStart, frame(startHead+`"peers":["a"],"mesh_rank":7,"ranks":[0],"ckpt_every":4}`, nil)},
		{fzStart, frame(startHead+`"ranks":[0,0],"ckpt_every":4}`, nil, nil)},
		{fzStart, frame(startHead + `"ranks":[],"ckpt_every":4}`)},
		{fzStart, frame(startHead+`"ranks":[0],"ckpt_every":0}`, nil)},
		// Resume sections: one per assigned rank, each empty or a checkpoint.
		{fzStart, frame(startHead+`"ranks":[0,1],"ckpt_every":4}`, fuzzCheckpointBlob(8))},
		{fzStart, frame(startHead+`"ranks":[0],"ckpt_every":4}`, []byte("AAAA"))},
		{fzStart, frame(`{"job":"fz","gen":1,"spec":{"p":2,"mixture":{"train":0,"features":8}},"ranks":[0],"ckpt_every":4}`, nil)},
		{fzCkpt, frame(`{"job":"fz","gen":1,"rank":0,"iters":5}`, []byte("AAAA"))},
		{fzCkpt, frame(`{"job":"fz","gen":1,"rank":-3,"iters":0}`, fuzzCheckpointBlob(0))},
		{fzCkpt, frame(`{"job":"fz","gen":1,"rank":0,"iters":9}`, fuzzCheckpointBlob(8))},
		{fzCkpt, frame(`{"job":"fz","gen":1,"rank":0,"iters":8}`)},
		{fzRankDone, frame(`{"job":"fz","gen":1,"rank":4096,"iters":1}`, model.EncodeShard(dense, center)...)},
		{fzRankDone, frame(`{"job":"fz","gen":1,"rank":0,"iters":1}`, []byte("m"), nil)},
		{fzRankDone, denseDone[:len(denseDone)-3]},
		{fzFail, []byte(`{"job":"fz","gen":1,"error":""}`)},
		{fzAbort, []byte(`{not json`)},
		// A peer table: one entry per rank of the generation, each a bounded
		// address, for exactly one rank, which resumes nothing.
		{fzStart, frame(startHead+`"ranks":[0],"ckpt_every":4,"mesh":["a:1"]}`, nil)},
		{fzStart, frame(startHead+`"ranks":[0,1],"ckpt_every":4,"mesh":["a:1","b:2"]}`, nil, nil)},
		{fzStart, frame(startHead+`"ranks":[0],"ckpt_every":4,"mesh":["a:1",""]}`, nil)},
		{fzStart, frame(startHead+`"ranks":[0],"ckpt_every":4,"mesh":[]}`, nil)},
		{fzStart, frame(startHead+`"ranks":[0],"ckpt_every":4,"mesh":["a:1","`+strings.Repeat("b", maxExecAddrLen+1)+`"]}`, nil)},
		{fzStart, frame(startHead+`"ranks":[1],"ckpt_every":4,"mesh":["a:1","b:2"]}`, fuzzCheckpointBlob(8))},
		{fzRankDone, frame(`{"job":"fz","gen":1,"rank":1,"iters":1,"msgs":-1}`)},
		{fzRankDone, frame(`{"job":"fz","gen":1,"rank":1,"iters":1}`, nil)},
		{fzPort, marshalExec(execPort{Port: 0})},
		{fzPort, []byte(`{"port":65536}`)},
		{fzPort, []byte(`"7070"`)},
		// A tree rank's per-layer iterations: bounded by the deepest tree a
		// gang can run, none negative.
		{fzRankDone, encodeExecRankDone(execRank{Job: "fz", Gen: 1, Rank: 2, Iters: 0, VirtSec: 1, Msgs: 4, Bytes: 96, Layers: []int{40, 12, 3}}, nil, nil)},
		{fzRankDone, frame(`{"job":"fz","gen":1,"rank":1,"iters":0,"layers":[5,-1]}`)},
		{fzRankDone, frame(`{"job":"fz","gen":1,"rank":1,"iters":0,"layers":[` + strings.Repeat("1,", core.TreeLayers(maxExecGangWidth)) + `1]}`)},
	}
	for _, s := range seeds {
		f.Add(s.kind, s.in)
	}
	f.Fuzz(func(t *testing.T, kind byte, in []byte) {
		switch kind % fzKinds {
		case fzStart:
			if m, resume, err := decodeExecStart(in); err == nil {
				blobs := map[int][]byte{}
				for r, ck := range resume {
					blobs[r] = ck.Encode()
				}
				mustReDecode(t, func(b []byte) error { _, _, err := decodeExecStart(b); return err }, encodeExecStart(m, blobs))
			}
		case fzCkpt:
			if h, blob, err := decodeExecCkpt(in); err == nil {
				mustReDecode(t, func(b []byte) error { _, _, err := decodeExecCkpt(b); return err }, encodeExecCkpt(h, blob))
			}
		case fzRankDone:
			if h, secs, err := decodeExecRankDone(in); err == nil {
				mustReDecode(t, func(b []byte) error { _, _, err := decodeExecRankDone(b); return err },
					mpi.PackSections(append([][]byte{marshalExec(h)}, secs...)...))
				// The shard sections are still hostile here; decoding them as
				// the owning job would must not panic either.
				if m, c, err := model.DecodeShard(secs, kernel.RBF(0.5), 2); err == nil {
					mustReDecode(t, func(b []byte) error { _, _, err := decodeExecRankDone(b); return err }, encodeExecRankDone(h, m, c))
				}
			}
		case fzAbort:
			if m, err := decodeExecAbort(in); err == nil {
				mustReDecode(t, func(b []byte) error { _, err := decodeExecAbort(b); return err }, marshalExec(m))
			}
		case fzFail:
			if m, err := decodeExecFail(in); err == nil {
				mustReDecode(t, func(b []byte) error { _, err := decodeExecFail(b); return err }, marshalExec(m))
			}
		case fzPort:
			if m, err := decodeExecPort(in); err == nil {
				mustReDecode(t, func(b []byte) error { _, err := decodeExecPort(b); return err }, marshalExec(m))
			}
		}
	})
}

func mustReDecode(t *testing.T, decode func([]byte) error, b []byte) {
	t.Helper()
	if err := decode(b); err != nil {
		t.Fatalf("accepted frame fails after encode round-trip: %v", err)
	}
}

// TestExecFrameRoundTrips pins the coordinator↔executor wire contract:
// every frame the sender-side encodes must decode back field-identical.
func TestExecFrameRoundTrips(t *testing.T) {
	got, resume, err := decodeExecStart(fuzzStartFrame())
	if err != nil {
		t.Fatalf("start round-trip: %v", err)
	}
	if got.Spec.P != 2 || len(got.Ranks) != 2 || got.CheckpointEvery != 4 {
		t.Fatalf("start round-trip dropped fields: %+v", got)
	}
	if len(resume) != 1 || resume[1] == nil || resume[1].Iters != 8 {
		t.Fatalf("start resume checkpoint did not survive: %+v", resume)
	}

	// A sender that still writes the retired peers/mesh_rank keys is
	// understood — unknown fields, not an error — and every bound that
	// remains still bites.
	const head = `{"job":"rt","gen":1,"spec":{"p":2,"dataset":"x"},`
	if m, _, err := decodeExecStart(frame(head+`"peers":["a"],"mesh_rank":7,"ranks":[0],"ckpt_every":4}`, nil)); err != nil {
		t.Fatalf("start frame with retired keys rejected: %v", err)
	} else if b := string(encodeExecStart(m, nil)); strings.Contains(b, "peers") || strings.Contains(b, "mesh_rank") {
		t.Fatalf("retired keys survived the round-trip: %s", b)
	}
	for name, in := range map[string][]byte{
		"no ranks":               frame(head + `"ranks":[],"ckpt_every":4}`),
		"duplicate rank":         frame(head+`"ranks":[0,0],"ckpt_every":4}`, nil, nil),
		"rank out of range":      frame(head+`"ranks":[2],"ckpt_every":4}`, nil),
		"no cadence":             frame(head+`"ranks":[0],"ckpt_every":0}`, nil),
		"resume is no ckpt":      frame(head+`"ranks":[0],"ckpt_every":4}`, []byte("AAAA")),
		"resume for no rank":     frame(head+`"ranks":[0],"ckpt_every":4}`, nil, fuzzCheckpointBlob(8)),
		"resume section missing": frame(head + `"ranks":[0],"ckpt_every":4}`),
		"the retired bare JSON":  []byte(head + `"ranks":[0],"ckpt_every":4}`),
	} {
		if _, _, err := decodeExecStart(in); err == nil {
			t.Errorf("hostile start frame accepted: %s", name)
		}
	}

	ckpt := execRank{Job: "rt", Gen: 1, Rank: 0, Iters: 8, VirtSec: 0.25}
	gotCk, blob, err := decodeExecCkpt(encodeExecCkpt(ckpt, fuzzCheckpointBlob(8)))
	if err != nil || !reflect.DeepEqual(gotCk, ckpt) || !bytes.Equal(blob, fuzzCheckpointBlob(8)) {
		t.Fatalf("checkpoint round-trip: %+v, %v", gotCk, err)
	}
	// The iters field is cross-checked against the blob, not trusted.
	ckpt.Iters = 9
	if _, _, err := decodeExecCkpt(encodeExecCkpt(ckpt, fuzzCheckpointBlob(8))); err == nil {
		t.Fatal("checkpoint frame with iters disagreeing with its blob was accepted")
	}

	for _, sparse := range []bool{false, true} {
		m, center := fuzzShard(sparse)
		done := execRank{Job: "rt", Gen: 1, Rank: 1, Iters: 40, VirtSec: 0.5}
		gotDone, secs, err := decodeExecRankDone(encodeExecRankDone(done, m, center))
		if err != nil || !reflect.DeepEqual(gotDone, done) {
			t.Fatalf("rank-done round-trip (sparse=%v): %+v, %v", sparse, gotDone, err)
		}
		back, gotCenter, err := model.DecodeShard(secs, m.Kernel, 2)
		if err != nil || back.NSV() != 3 || back.SVX.Sparse() != sparse || len(gotCenter) != 2 {
			t.Fatalf("rank-done shard (sparse=%v): %+v, %v", sparse, back, err)
		}
	}

	mesh := fuzzMeshStart()
	if got, resume, err := decodeExecStart(encodeExecStart(mesh, nil)); err != nil || !reflect.DeepEqual(got, mesh) || len(resume) != 0 {
		t.Fatalf("mesh start round-trip: %+v, %v", got, err)
	}
	for name, in := range map[string][]byte{
		"table shorter than the world": frame(head+`"ranks":[0],"ckpt_every":4,"mesh":["a:1"]}`, nil),
		"two ranks on one worker":      frame(head+`"ranks":[0,1],"ckpt_every":4,"mesh":["a:1","b:2"]}`, nil, nil),
		"empty address":                frame(head+`"ranks":[0],"ckpt_every":4,"mesh":["a:1",""]}`, nil),
		"address past the bound":       frame(head+`"ranks":[0],"ckpt_every":4,"mesh":["a:1","`+strings.Repeat("b", maxExecAddrLen+1)+`"]}`, nil),
		"a mesh rank resumes":          frame(head+`"ranks":[1],"ckpt_every":4,"mesh":["a:1","b:2"]}`, fuzzCheckpointBlob(8)),
	} {
		if _, _, err := decodeExecStart(in); err == nil {
			t.Errorf("hostile mesh start frame accepted: %s", name)
		}
	}

	bare := execRank{Job: "rt", Gen: 1, Rank: 1, Iters: 40, VirtSec: 0.5, Msgs: 12, Bytes: 480}
	if got, secs, err := decodeExecRankDone(encodeExecRankDone(bare, nil, nil)); err != nil || !reflect.DeepEqual(got, bare) || len(secs) != 0 {
		t.Fatalf("header-only rank-done round-trip: %+v, %d sections, %v", got, len(secs), err)
	}
	tree := execRank{Job: "rt", Gen: 1, Rank: 1, Msgs: 4, Bytes: 96, Layers: []int{40, 12}}
	if got, _, err := decodeExecRankDone(encodeExecRankDone(tree, nil, nil)); err != nil || !reflect.DeepEqual(got, tree) {
		t.Fatalf("tree rank-done round-trip: %+v, %v", got, err)
	}
	for name, layers := range map[string][]int{
		"a negative layer":     {40, -1},
		"deeper than any tree": make([]int, core.TreeLayers(maxExecGangWidth)+1),
	} {
		h := tree
		h.Layers = layers
		if _, _, err := decodeExecRankDone(encodeExecRankDone(h, nil, nil)); err == nil {
			t.Errorf("rank-done frame with %s accepted", name)
		}
	}
	if got, err := decodeExecPort(marshalExec(execPort{Port: 7070})); err != nil || got.Port != 7070 {
		t.Fatalf("port round-trip: %+v, %v", got, err)
	}

	fail := execFail{Job: "rt", Gen: 1, Rank: 1, Err: "no such dataset"}
	if got, err := decodeExecFail(marshalExec(fail)); err != nil || got != fail {
		t.Fatalf("fail round-trip: %+v, %v", got, err)
	}
}

// TestRankDoneModelBound: the rank-done decoder caps the frame before it
// looks inside — an unauthenticated lease must not be able to drive
// coordinator allocations up to the transport's 1GB frame ceiling.
func TestRankDoneModelBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a >64MB frame")
	}
	m, center := fuzzShard(false)
	secs := model.EncodeShard(m, center)
	secs[len(secs)-1] = make([]byte, maxExecModelBytes+1)
	big := frame(`{"job":"rt","gen":1,"rank":0,"iters":1}`, secs...)
	if _, _, err := decodeExecRankDone(big); err == nil {
		t.Fatal("rank-done frame with an oversize model accepted")
	}
}
