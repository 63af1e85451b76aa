package model

import (
	"bytes"
	"encoding/binary"
	"os"
	"strconv"
	"strings"
	"testing"

	"casvm/internal/la"
)

// FuzzLoadSet asserts the model-file decoder never panics and that any set
// it accepts can predict and re-saves to the bytes it was read from. The
// committed seeds (testdata/fuzz/FuzzLoadSet) are a dense set, a CSR set, a
// set with meta, a text model file's header, an envelope declaring 2³⁰
// sections and a head with its meta keys out of order; the ones added here
// are a one-model file, nothing, that file cut and lengthened by a byte, a
// kernel under its alias and a head declaring two models over one.
func FuzzLoadSet(f *testing.F) {
	good := handFile(rawHead("gaussian", 0.5), 1)
	twoModels := rawHead("gaussian", 0.5)
	binary.LittleEndian.PutUint32(twoModels[4+len(headTag):], 2)
	for _, seed := range [][]byte{good, nil, good[:len(good)-1], append(good[:len(good):len(good)], 0),
		handFile(rawHead("rbf", 0.5), 1), handFile(twoModels, 1)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		set, err := LoadSet(in)
		if err != nil {
			return
		}
		q := la.NewDense(1, set.Centers.Features(), make([]float64, set.Centers.Features()))
		if pred := setPredict(set, q, 0); pred != 1 && pred != -1 {
			t.Fatalf("prediction %v not ±1", pred)
		}
		var again bytes.Buffer
		if err := SaveSet(&again, set); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), in) {
			t.Fatal("an accepted file re-saves to other bytes")
		}
	})
}

// TestFuzzLoadSetSeedsLoad keeps FuzzLoadSet's valid seeds valid, so the
// fuzzer starts from files the decoder accepts as well as ones it refuses.
func TestFuzzLoadSetSeedsLoad(t *testing.T) {
	for _, name := range []string{"dense-set", "csr-set", "meta-set"} {
		raw, err := os.ReadFile("testdata/fuzz/FuzzLoadSet/" + name)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		in, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := LoadSet([]byte(in)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
