package model_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"casvm/internal/core"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
)

// Section indices of the shard encoding, as model/shard.go documents them.
const (
	secHead = iota
	secAlpha
	secY
	secCenter
	secRowptr
	secIdx
	secVal
)

// testShard is a 4-SV model over 3 features with awkward values in it (a
// subnormal, −0, an explicit zero), dense or CSR, and its center.
func testShard(sparse bool) (*model.Model, []float64) {
	x := la.NewDense(4, 3, []float64{1, 0, math.Copysign(0, -1), 5e-324, -2.5, 1e21, 0, 0, 0, 1.0 / 3, 7, -1e-7})
	if sparse {
		x = la.NewSparse(4, 3, []int32{0, 2, 5, 5, 7}, []int32{0, 2, 0, 1, 2, 0, 2},
			[]float64{1, math.Copysign(0, -1), 5e-324, -2.5, 0, 1.0 / 3, -1e-7})
	}
	m := &model.Model{Kernel: kernel.RBF(0.25), SVX: x, SVY: []float64{1, -1, 1, -1},
		Alpha: []float64{0.5, 1, 1e-9, 0.125}, B: -0.75, Fallback: -1}
	return m, []float64{0.1, math.Copysign(0, -1), 3}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameShard reports whether two models and centers agree bit for bit,
// storage kind and stored structure included.
func sameShard(a, b *model.Model, ca, cb []float64) bool {
	if a.Kernel != b.Kernel || a.SVX.Sparse() != b.SVX.Sparse() || a.NSV() != b.NSV() ||
		a.SVX.Features() != b.SVX.Features() || a.SVX.Rows() != b.SVX.Rows() ||
		!bitsEqual([]float64{a.B, a.Fallback}, []float64{b.B, b.Fallback}) ||
		!bitsEqual(a.Alpha, b.Alpha) || !bitsEqual(a.SVY, b.SVY) || !bitsEqual(ca, cb) {
		return false
	}
	for i := 0; i < a.NSV(); i++ {
		if a.SVX.Sparse() {
			ai, av := a.SVX.SparseRow(i)
			bi, bv := b.SVX.SparseRow(i)
			if len(ai) != len(bi) || !bitsEqual(av, bv) {
				return false
			}
			for t := range ai {
				if ai[t] != bi[t] {
					return false
				}
			}
		} else if !bitsEqual(a.SVX.DenseRow(i), b.SVX.DenseRow(i)) {
			return false
		}
	}
	return true
}

// TestShardRoundTripBitExact: a shard that crossed a process boundary is the
// shard that was sent — every float64 by its bits, dense stays dense and CSR
// keeps its stored structure — so it hashes as the original does. The golden
// models' shards go through too.
func TestShardRoundTripBitExact(t *testing.T) {
	type shard struct {
		m      *model.Model
		center []float64
	}
	shards := map[string]shard{}
	for _, sparse := range []bool{false, true} {
		m, c := testShard(sparse)
		shards[map[bool]string{false: "dense", true: "sparse"}[sparse]] = shard{m, c}
	}
	empty, c := testShard(false)
	empty = &model.Model{Kernel: empty.Kernel, SVX: la.NewDense(0, 3, nil), Fallback: 1}
	shards["no support vectors"] = shard{empty, c}
	for name, s := range goldenSets(t) {
		for j, m := range s.Models {
			shards[fmt.Sprintf("%s model %d", name, j)] = shard{m, s.Centers.DenseRow(j)}
		}
	}
	for name, s := range shards {
		secs := model.EncodeShard(s.m, s.center)
		if len(secs) != model.ShardSections {
			t.Fatalf("%s: %d sections", name, len(secs))
		}
		// Through the envelope, as both callers send it.
		got, err := mpi.UnpackSections(mpi.PackSections(secs...), model.ShardSections)
		if err != nil {
			t.Fatal(err)
		}
		m, center, err := model.DecodeShard(got, s.m.Kernel, len(s.center))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameShard(s.m, m, s.center, center) {
			t.Errorf("%s: decoded shard differs from the one encoded", name)
		}
		want, err := core.ModelHash(model.Single(s.m, s.center))
		if err != nil {
			t.Fatal(err)
		}
		if h, err := core.ModelHash(model.Single(m, center)); err != nil || h != want {
			t.Errorf("%s: decoded shard hashes to %s (%v), want %s", name, h, err, want)
		}
	}
}

// hostileShards are encodings DecodeShard must refuse, each one edit away
// from a valid dense or CSR shard.
func hostileShards() map[string][][]byte {
	enc := func(sparse bool) [][]byte {
		m, c := testShard(sparse)
		return model.EncodeShard(m, c)
	}
	edit := func(sparse bool, sec int, f func([]byte) []byte) [][]byte {
		secs := enc(sparse)
		secs[sec] = f(append([]byte(nil), secs[sec]...))
		return secs
	}
	putI32 := func(at int, v int32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4*at:], uint32(v)); return b }
	}
	putF64 := func(at int, v float64) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8*at:], math.Float64bits(v)); return b }
	}
	cut := func(n int) func([]byte) []byte { return func(b []byte) []byte { return b[:len(b)-n] } }
	grow := func(n int) func([]byte) []byte { return func(b []byte) []byte { return append(b, make([]byte, n)...) } }
	return map[string][][]byte{
		"six sections":               enc(false)[:6],
		"unknown storage kind":       edit(false, secHead, func(b []byte) []byte { b[0] = 2; return b }),
		"short head":                 edit(false, secHead, cut(1)),
		"more alphas than labels":    edit(false, secAlpha, grow(8)),
		"alpha not whole float64s":   edit(false, secAlpha, cut(3)),
		"empty center":               edit(false, secCenter, cut(24)),
		"center of another width":    edit(false, secCenter, grow(8)),
		"dense values short a row":   edit(false, secVal, cut(24)),
		"dense values short a float": edit(false, secVal, cut(8)),
		"dense with a rowptr":        edit(false, secRowptr, grow(20)),
		"sparse kind, dense body":    edit(false, secHead, func(b []byte) []byte { b[0] = 1; return b }),
		"dense kind, sparse body":    edit(true, secHead, func(b []byte) []byte { b[0] = 0; return b }),
		"rowptr for more SVs":        edit(true, secRowptr, grow(4)),
		"rowptr past the values":     edit(true, secRowptr, putI32(4, 8)),
		"rowptr short of the values": edit(true, secRowptr, putI32(4, 6)),
		"rowptr not monotone":        edit(true, secRowptr, putI32(2, 1)),
		"rowptr starts past zero":    edit(true, secRowptr, putI32(0, 1)),
		"negative rowptr":            edit(true, secRowptr, putI32(1, -1)),
		"index out of range":         edit(true, secIdx, putI32(1, 3)),
		"negative index":             edit(true, secIdx, putI32(0, -1)),
		"indices not increasing":     edit(true, secIdx, putI32(3, 2)),
		"more indices than values":   edit(true, secIdx, grow(4)),
		"more values than indices":   edit(true, secVal, grow(8)),
		"NaN alpha":                  edit(false, secAlpha, putF64(0, math.NaN())),
		"zero alpha":                 edit(false, secAlpha, putF64(1, 0)),
		"infinite alpha":             edit(false, secAlpha, putF64(1, math.Inf(1))),
		"infinite label":             edit(true, secY, putF64(2, math.Inf(-1))),
		"NaN bias":                   edit(false, secHead, func(b []byte) []byte { putF64(0, math.NaN())(b[1:]); return b }),
		"infinite fallback":          edit(false, secHead, func(b []byte) []byte { putF64(1, math.Inf(1))(b[1:]); return b }),
		"fallback not a label":       edit(false, secHead, func(b []byte) []byte { putF64(1, 1e-76)(b[1:]); return b }),
		"infinite center":            edit(true, secCenter, putF64(2, math.Inf(1))),
		"NaN support vector":         edit(true, secVal, putF64(3, math.NaN())),
	}
}

// TestDecodeShardRejects: every hostile encoding is an error naming the
// model package, never a panic and never a model.
func TestDecodeShardRejects(t *testing.T) {
	for name, secs := range hostileShards() {
		m, _, err := model.DecodeShard(secs, kernel.RBF(0.25), 3)
		if err == nil || m != nil {
			t.Errorf("%s: decoded (%v)", name, err)
		} else if !strings.Contains(err.Error(), "model:") && !strings.Contains(err.Error(), "la:") {
			t.Errorf("%s: error %q names no package", name, err)
		}
	}
	good, center := testShard(true)
	if _, _, err := model.DecodeShard(model.EncodeShard(good, center), kernel.RBF(0.25), 4); err == nil {
		t.Error("a 3-feature shard decoded against 4-feature data")
	}
	if _, _, err := model.DecodeShard(model.EncodeShard(good, center), kernel.Params{Kind: 99}, 3); err == nil {
		t.Error("a shard decoded under an invalid kernel")
	}
}

// FuzzDecodeShardModel drives the shard decoder with hostile envelopes. It
// sits on both process boundaries a trained model crosses, so it must not
// panic, must not allocate past the bytes it was handed (the length checks
// come first), and whatever it accepts must be a model that evaluates, that
// re-encodes to the same sections, and whose model file loads back to a set
// that re-saves to the same bytes and hashes alike. The seed corpus comes from
// the encoder — valid dense, CSR and empty shards, and every hostile edit of
// TestDecodeShardRejects; it runs in normal test mode and in `make
// fuzz-smoke`.
func FuzzDecodeShardModel(f *testing.F) {
	for _, sparse := range []bool{false, true} {
		m, c := testShard(sparse)
		packed := mpi.PackSections(model.EncodeShard(m, c)...)
		f.Add(packed, uint8(3))
		f.Add(packed[:len(packed)-5], uint8(3))
		f.Add(packed, uint8(2))
	}
	for _, secs := range hostileShards() {
		f.Add(mpi.PackSections(secs...), uint8(3))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(3))
	f.Add([]byte(nil), uint8(0))
	f.Fuzz(func(t *testing.T, in []byte, features uint8) {
		secs, err := mpi.UnpackSections(in, mpi.AnyCount)
		if err != nil {
			return
		}
		k := kernel.RBF(0.25)
		m, center, err := model.DecodeShard(secs, k, int(features))
		if err != nil {
			return
		}
		if m.SVX.Features() != int(features) || len(center) != int(features) || m.SVX.Rows() != m.NSV() {
			t.Fatalf("accepted a %d×%d shard with a %d-wide center against %d features",
				m.SVX.Rows(), m.SVX.Features(), len(center), features)
		}
		q := la.NewDense(1, int(features), make([]float64, features))
		if p := model.Single(m, center).PredictAll(q)[0]; p != 1 && p != -1 {
			t.Fatalf("prediction %v not ±1", p)
		}
		again := model.EncodeShard(m, center)
		for i := range again {
			if !bytes.Equal(again[i], secs[i]) {
				t.Fatalf("section %d changed across decode and encode", i)
			}
		}
		// A model written to a file and loaded back is the model trained.
		set := model.Single(m, center)
		var file, resaved bytes.Buffer
		if err := model.SaveSet(&file, set); err != nil {
			t.Fatal(err)
		}
		back, err := model.LoadSet(file.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := model.SaveSet(&resaved, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), file.Bytes()) || back.Hash() != set.Hash() {
			t.Fatalf("its file loads as a set that re-saves or hashes differently")
		}
	})
}
