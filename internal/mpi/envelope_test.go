package mpi

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

func TestSectionsRoundTrip(t *testing.T) {
	in := [][]byte{[]byte("alpha"), nil, []byte{1, 2, 3}}
	buf := PackSections(in...)
	for _, want := range []int{AnyCount, 3} {
		out, err := UnpackSections(buf, want)
		if err != nil {
			t.Fatalf("want=%d: %v", want, err)
		}
		if len(out) != len(in) {
			t.Fatalf("want=%d: %d sections back, sent %d", want, len(out), len(in))
		}
		for i := range in {
			if !bytes.Equal(out[i], in[i]) {
				t.Fatalf("section %d: %q, sent %q", i, out[i], in[i])
			}
		}
	}
	if out, err := UnpackSections(PackSections(), 0); err != nil || len(out) != 0 {
		t.Fatalf("empty envelope: %v, %d sections", err, len(out))
	}
}

// TestUnpackSectionsHostile: an envelope is bytes from another process. A
// count the buffer cannot hold, a count the protocol does not expect, a
// short section and trailing bytes are all typed errors, and the declared
// count never sizes an allocation: parsing costs O(len(buf)).
func TestUnpackSectionsHostile(t *testing.T) {
	good := PackSections([]byte("ab"), []byte("cd"))
	bad := map[string][]byte{
		"empty":            nil,
		"count 0xffffffff": {0xff, 0xff, 0xff, 0xff},
		"count 2^24":       append([]byte{0, 0, 0, 1}, make([]byte, 64)...),
		"count > present":  append([]byte{3, 0, 0, 0}, good[4:]...),
		"short section":    good[:len(good)-1],
		"trailing byte":    append(good[:len(good):len(good)], 0),
		"length too large": {1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, buf := range bad {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnpackSections(buf, AnyCount)
		runtime.ReadMemStats(&after)
		var ee *EnvelopeError
		if !errors.As(err, &ee) {
			t.Errorf("%s: error %v, want *EnvelopeError", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(24*len(buf)+4096) {
			t.Errorf("%s: parsing %d bytes allocated %d", name, len(buf), grew)
		}
	}
	var ee *EnvelopeError
	if _, err := UnpackSections(good, 3); !errors.As(err, &ee) {
		t.Errorf("2 sections accepted where 3 were required: %v", err)
	}
}
