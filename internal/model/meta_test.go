package model

import (
	"bytes"
	"strings"
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

// TestMetaRoundTrip pins the metadata extension of the model format: sorted
// meta lines survive a save/load cycle, and a set without metadata encodes
// byte-identically to the historical v1 format (so model files from earlier
// releases read as they were written).
func TestMetaRoundTrip(t *testing.T) {
	s := metaTestSet(t)
	var plain bytes.Buffer
	if err := SaveSet(&plain, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "\nmeta ") {
		t.Fatal("metadata-free set wrote meta lines")
	}

	s.SetMeta("compress_budget", "64")
	s.SetMeta("accuracy_delta", "0.003 (full 0.97 vs compressed 0.967)")
	var annotated bytes.Buffer
	if err := SaveSet(&annotated, s); err != nil {
		t.Fatal(err)
	}
	encoded := annotated.String()
	// Annotations add lines but leave the rest of the encoding untouched.
	if got := strings.ReplaceAll(encoded,
		"meta accuracy_delta 0.003 (full 0.97 vs compressed 0.967)\nmeta compress_budget 64\n", ""); got != plain.String() {
		t.Fatalf("meta lines not additive:\n%s", encoded)
	}

	loaded, err := LoadSet(strings.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Meta) != 2 || loaded.Meta["compress_budget"] != "64" ||
		loaded.Meta["accuracy_delta"] != "0.003 (full 0.97 vs compressed 0.967)" {
		t.Fatalf("meta round trip: %+v", loaded.Meta)
	}
	// The re-save is deterministic (sorted keys) and round-trip stable.
	var again bytes.Buffer
	if err := SaveSet(&again, loaded); err != nil {
		t.Fatal(err)
	}
	if again.String() != encoded {
		t.Fatalf("re-save differs:\n%s\nvs\n%s", again.String(), encoded)
	}
}

// TestMetaRejectsUnencodable covers the save-side guards: keys with spaces
// and values with newlines would break the line framing.
func TestMetaRejectsUnencodable(t *testing.T) {
	s := metaTestSet(t)
	s.SetMeta("bad key", "v")
	if err := SaveSet(&bytes.Buffer{}, s); err == nil {
		t.Fatal("space in key accepted")
	}
	s.Meta = map[string]string{"key": "line1\nline2"}
	if err := SaveSet(&bytes.Buffer{}, s); err == nil {
		t.Fatal("newline in value accepted")
	}
}
