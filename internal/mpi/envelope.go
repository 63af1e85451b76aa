package mpi

import (
	"encoding/binary"
	"fmt"
)

// EnvelopeError reports a section envelope that does not parse. Envelopes
// arrive from other ranks — other processes, over a Link — so a malformed
// one is an error for the caller to return, never a panic.
type EnvelopeError struct{ Reason string }

func (e *EnvelopeError) Error() string { return "mpi: envelope: " + e.Reason }

// AnyCount tells UnpackSections to accept whatever section count the
// envelope declares.
const AnyCount = -1

// PackSections frames sections as one buffer: a little-endian u32 count,
// then each section behind its u32 length. Every multi-part payload in the
// repository uses it: Allgatherv's block table, core's sample parts and its
// gathered results.
func PackSections(sections ...[]byte) []byte {
	total := 4
	for _, s := range sections {
		total += 4 + len(s)
	}
	out := make([]byte, 0, total)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return out
}

// UnpackSections parses a PackSections buffer into sections aliasing buf.
// want is the section count the caller's protocol fixes, or AnyCount. The
// declared count is checked against want and against what buf could hold
// (four header bytes per section) before anything is allocated, so the
// allocation is O(len(buf)) whatever the first four bytes say; short
// sections and trailing bytes are errors.
func UnpackSections(buf []byte, want int) ([][]byte, error) {
	if len(buf) < 4 {
		return nil, &EnvelopeError{"short header"}
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if want != AnyCount && n != want {
		return nil, &EnvelopeError{fmt.Sprintf("%d sections, want %d", n, want)}
	}
	if n > len(buf)/4 {
		return nil, &EnvelopeError{fmt.Sprintf("%d sections declared in %d bytes", n, len(buf))}
	}
	out := make([][]byte, n)
	for i := range out {
		if len(buf) < 4 {
			return nil, &EnvelopeError{fmt.Sprintf("short section header %d", i)}
		}
		l := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < l {
			return nil, &EnvelopeError{fmt.Sprintf("short section %d", i)}
		}
		out[i] = buf[:l:l]
		buf = buf[l:]
	}
	if len(buf) != 0 {
		return nil, &EnvelopeError{fmt.Sprintf("%d trailing bytes", len(buf))}
	}
	return out, nil
}
