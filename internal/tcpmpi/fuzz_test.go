package tcpmpi

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frameBytes assembles a well-formed frame for the seed corpus.
func frameBytes(tag int32, seq uint32, sendNs int64, payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	putFrameHeader(buf, int(tag), seq, sendNs, len(payload))
	copy(buf[frameHeaderLen:], payload)
	return buf
}

// FuzzReadFrame asserts the wire-frame decoder never panics or
// over-allocates on hostile input: truncated headers, truncated payloads,
// oversized length fields and zero-length payloads must all come back as
// errors or consistent frames. Run with `go test -fuzz FuzzReadFrame
// ./internal/tcpmpi` for extended exploration; the seed corpus runs in
// normal test mode.
func FuzzReadFrame(f *testing.F) {
	oversized := make([]byte, frameHeaderLen)
	putFrameHeader(oversized, 1, 1, 0, 0)
	binary.LittleEndian.PutUint32(oversized[16:20], maxFrame+1)

	seeds := [][]byte{
		nil,
		{0x01},
		{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07},                              // truncated header
		frameBytes(5, 1, 0, nil),                                                // zero-length payload
		frameBytes(5, 0, 0, []byte("control")),                                  // seq-0 (control) frame
		frameBytes(-2147483648, 0, 0, nil),                                      // heartbeat tag
		frameBytes(7, 3, 1_700_000_000_000_000_000, []byte("hello world")),      // normal frame
		frameBytes(7, 3, 1_700_000_000_000_000_000, []byte("hello world"))[:23], // truncated payload
		frameBytes(7, 3, -1, []byte("x")),                                       // negative sendNs survives
		oversized,                                                               // length field past maxFrame
		append(frameBytes(1, 1, 0, []byte("a")), 0xFF, 0xFF),                    // trailing garbage
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tag, seq, sendNs, payload, err := readFrame(bytes.NewReader(in))
		if err != nil {
			return
		}
		// An accepted frame must round-trip through the encoder.
		if len(payload) > maxFrame {
			t.Fatalf("accepted oversized payload: %d bytes", len(payload))
		}
		out := frameBytes(int32(tag), seq, sendNs, payload)
		if !bytes.Equal(out, in[:len(out)]) {
			t.Fatalf("frame does not round-trip: tag=%d seq=%d len=%d", tag, seq, len(payload))
		}
	})
}

// helloBytes assembles a hello for the seed corpus.
func helloBytes(rank, recvSeq, flags uint32) []byte {
	b := make([]byte, helloLen)
	putHello(b, helloMsg{rank: rank, recvSeq: recvSeq, flags: flags})
	return b
}

// FuzzParseHello asserts the 12-byte resume-handshake decoder never panics
// and never accepts a hello it cannot fully vouch for: malformed watermark
// or incarnation (flag) bytes must fail the handshake rather than resume a
// connection from garbage sequence state. Run with `go test -fuzz
// FuzzParseHello ./internal/tcpmpi` for extended exploration.
func FuzzParseHello(f *testing.F) {
	seeds := [][]byte{
		nil,
		{0x01},
		helloBytes(1, 0, 0)[:11],        // one byte short
		helloBytes(1, 0, helloFresh),    // fresh incarnation
		helloBytes(3, 77, 0),            // mid-run resume watermark
		helloBytes(0, 0, helloRegister), // worker registration
		helloBytes(0, 0, helloClient),   // client registration
		helloBytes(0, 0, helloRegister|helloClient),      // contradictory roles
		helloBytes(0, 0, helloFresh|helloRegister),       // fresh worker
		helloBytes(9, 1, 0xFFFFFFFF),                     // all flag bits set
		helloBytes(9, 1, helloKnownFlags+1<<3),           // one unknown bit
		helloBytes(0xFFFFFFFF, 0xFFFFFFFF, helloFresh),   // extreme rank/watermark
		append(helloBytes(2, 5, helloFresh), 0xAA, 0xBB), // trailing garbage
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		h, err := parseHello(in)
		if err != nil {
			return
		}
		if len(in) < helloLen {
			t.Fatalf("accepted short hello (%d bytes)", len(in))
		}
		// Accepted flags are exactly the known bits, never both roles.
		if h.flags&^uint32(helloKnownFlags) != 0 {
			t.Fatalf("accepted unknown flags %#x", h.flags)
		}
		if h.flags&helloRegister != 0 && h.flags&helloClient != 0 {
			t.Fatal("accepted a hello that is both worker and client")
		}
		// An accepted hello must round-trip through the encoder: the decoder
		// read exactly the fields the encoder writes, so a resume handshake
		// can never act on a watermark the other side did not send.
		out := helloBytes(h.rank, h.recvSeq, h.flags)
		if !bytes.Equal(out, in[:helloLen]) {
			t.Fatalf("hello does not round-trip: %+v", h)
		}
	})
}
