package model

import (
	"bytes"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

func metaTestSet(t *testing.T) *Set {
	t.Helper()
	x := la.NewDense(4, 2, []float64{1, 2, -1, -2, 3, 1, -3, -1})
	m := FromSolution(x, []float64{1, -1, 1, -1}, []float64{0.5, 0.5, 0.2, 0.2}, 0.1, kernel.RBF(0.5))
	return Single(m, []float64{0, 0})
}

// TestMetaRoundTrip pins the metadata of the model format: meta entries
// survive a save/load cycle — any string, spaces and newlines included — and
// the re-save is deterministic (sorted keys) and byte-identical.
func TestMetaRoundTrip(t *testing.T) {
	s := metaTestSet(t)
	s.SetMeta("compress_budget", "64")
	s.SetMeta("accuracy_delta", "0.003 (full 0.97 vs compressed 0.967)")
	s.SetMeta("a key with spaces", "line1\nline2")
	var annotated bytes.Buffer
	if err := SaveSet(&annotated, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(annotated.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Meta) != 3 || loaded.Meta["compress_budget"] != "64" ||
		loaded.Meta["accuracy_delta"] != "0.003 (full 0.97 vs compressed 0.967)" ||
		loaded.Meta["a key with spaces"] != "line1\nline2" {
		t.Fatalf("meta round trip: %+v", loaded.Meta)
	}
	var again bytes.Buffer
	if err := SaveSet(&again, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), annotated.Bytes()) {
		t.Fatal("re-save differs")
	}
}
