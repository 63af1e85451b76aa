package tcpmpi

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frameBytes assembles a well-formed frame for the seed corpus.
func frameBytes(tag int32, payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	putFrameHeader(buf, int(tag), len(payload))
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
	putFrameHeader(oversized, 1, 0)
	binary.LittleEndian.PutUint32(oversized[4:8], maxFrame+1)
	// A retired 16-byte header (tag, wall-clock ns, length) read as this
	// one: the clock's low word becomes the length.
	retired := binary.LittleEndian.AppendUint32(nil, 7)
	retired = binary.LittleEndian.AppendUint64(retired, 1_700_000_000_000_000_000)
	retired = binary.LittleEndian.AppendUint32(retired, 2)
	retired = append(retired, "hi"...)

	seeds := [][]byte{
		nil,
		{0x01},
		{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}, // truncated header
		frameBytes(5, nil),                         // zero-length payload
		frameBytes(5, []byte("control")),           // lease frame
		frameBytes(-2147483648, nil),               // heartbeat tag
		frameBytes(7, []byte("hello world")),       // normal frame
		frameBytes(7, []byte("hello world"))[:11],  // truncated payload
		oversized, // length field past maxFrame
		retired,   // retired 16-byte header
		append(frameBytes(1, []byte("a")), 0xFF, 0xFF), // trailing garbage
		frameBytes(9, nil)[:frameHeaderLen-1],          // one byte short of a header
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tag, payload, err := readFrame(bytes.NewReader(in))
		if err != nil {
			return
		}
		// An accepted frame must round-trip through the encoder.
		if len(payload) > maxFrame {
			t.Fatalf("accepted oversized payload: %d bytes", len(payload))
		}
		out := frameBytes(int32(tag), payload)
		if !bytes.Equal(out, in[:len(out)]) {
			t.Fatalf("frame does not round-trip: tag=%d len=%d", tag, len(payload))
		}
	})
}

// helloBytes assembles a hello for the seed corpus.
func helloBytes(rank, flags uint32) []byte {
	b := make([]byte, helloLen)
	putHello(b, helloMsg{rank: rank, flags: flags})
	return b
}

// FuzzParseHello asserts the 8-byte hello decoder never panics and never
// accepts a hello it cannot fully vouch for: unknown flag bits — among them
// bit 0, the retired fresh-incarnation flag — contradictory roles and a
// missing helloHeader8 (a dialer of the 16-byte-header wire) fail the
// handshake. Run with `go test -fuzz FuzzParseHello ./internal/tcpmpi` for
// extended exploration.
func FuzzParseHello(f *testing.F) {
	const retiredFresh = 1 << 0
	if _, err := parseHello(helloBytes(1, retiredFresh|helloHeader8)); err == nil {
		f.Fatal("the retired fresh bit parsed as a known flag")
	}
	const h8 = helloHeader8
	seeds := [][]byte{
		nil,
		{0x01},
		helloBytes(1, h8)[:helloLen-1],  // one byte short
		helloBytes(1, h8),               // mesh hello
		helloBytes(3, h8),               // mesh hello from a higher rank
		helloBytes(1, 0),                // old-wire mesh hello: no h8
		helloBytes(0, helloRegister|h8), // worker registration
		helloBytes(0, helloClient|h8),   // client registration
		helloBytes(0, helloRegister),    // old-wire worker registration
		helloBytes(0, helloClient),      // old-wire client registration
		helloBytes(0, helloRegister|helloClient|h8), // contradictory roles
		helloBytes(1, retiredFresh|h8),              // retired fresh bit: unknown
		helloBytes(9, 0xFFFFFFFF),                   // all flag bits set
		helloBytes(9, helloKnownFlags+1<<4),         // one unknown bit
		helloBytes(0xFFFFFFFF, h8),                  // extreme rank
		append(helloBytes(2, h8), 0xAA, 0xBB),       // trailing garbage
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
		if h.flags&helloHeader8 == 0 {
			t.Fatal("accepted a hello without the 8-byte frame header flag")
		}
		// An accepted hello must round-trip through the encoder: the decoder
		// read exactly the fields the encoder writes.
		out := helloBytes(h.rank, h.flags)
		if !bytes.Equal(out, in[:helloLen]) {
			t.Fatalf("hello does not round-trip: %+v", h)
		}
	})
}

// replyBytes assembles a registration reply for the seed corpus.
func replyBytes(id, ttlMillis uint32) []byte {
	b := make([]byte, replyLen)
	putLeaseReply(b, id, ttlMillis)
	return b
}

// FuzzParseLeaseReply asserts the registration-reply decoder never panics
// and accepts only a TTL that can be a read deadline: above zero and at most
// maxLeaseTTL. Run with `go test -fuzz FuzzParseLeaseReply ./internal/tcpmpi`
// for extended exploration.
func FuzzParseLeaseReply(f *testing.F) {
	hour := uint32(maxLeaseTTL.Milliseconds())
	seeds := [][]byte{
		nil,
		{0x01},
		replyBytes(3, 6000)[:replyLen-1],       // one byte short
		replyBytes(0, 6000),                    // the default 6s lease
		replyBytes(7, 1),                       // shortest TTL
		replyBytes(7, hour),                    // longest TTL
		replyBytes(7, hour+1),                  // past the bound
		replyBytes(7, 0),                       // no TTL
		replyBytes(0xFFFFFFFF, 0xFFFFFFFF),     // every bit set
		append(replyBytes(1, 300), 0xAA, 0xBB), // trailing garbage
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		id, ttl, err := parseLeaseReply(in)
		if err != nil {
			return
		}
		if ttl <= 0 || ttl > maxLeaseTTL {
			t.Fatalf("accepted TTL %v", ttl)
		}
		if out := replyBytes(uint32(id), uint32(ttl.Milliseconds())); !bytes.Equal(out, in[:replyLen]) {
			t.Fatalf("reply does not round-trip: id=%d ttl=%v", id, ttl)
		}
	})
}
