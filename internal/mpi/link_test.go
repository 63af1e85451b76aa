package mpi

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"casvm/internal/perfmodel"
	"casvm/internal/trace"
)

// cannedLink answers every Recv with one fixed frame (or error) and
// swallows sends: the network as an adversary sees it.
type cannedLink struct {
	frame []byte
	err   error
}

func (l cannedLink) Send(int, int, []byte) error            { return l.err }
func (l cannedLink) RecvAt(int, int) ([]byte, int64, error) { return l.frame, 0, l.err }

// TestShortLinkFrameIsLinkError: a frame shorter than the link prefix comes
// from the network, not from a bug here, so it must surface as a typed
// *LinkError — not a slice-bounds panic turned into "rank panicked".
func TestShortLinkFrameIsLinkError(t *testing.T) {
	for n := 0; n < linkPrefix; n++ {
		w := NewWorld(2, perfmodel.Hopper(), 1)
		err := w.RunLink(0, cannedLink{frame: make([]byte, n)}, func(c *Comm) error {
			c.Recv(1, 5)
			return nil
		})
		var le *LinkError
		if !errors.As(err, &le) {
			t.Fatalf("%d-byte frame: %v, want *LinkError", n, err)
		}
		if le.Rank != 0 || le.Peer != 1 || le.Op != "recv" || strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%d-byte frame: %+v (%v)", n, le, err)
		}
	}
}

// linkFrame assembles a frame as linkWire.put writes it.
func linkFrame(arrival, sendClock float64, sendNs, edgeID int64, payload string) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, math.Float64bits(arrival))
	b = le.AppendUint64(b, math.Float64bits(sendClock))
	b = le.AppendUint64(b, uint64(sendNs))
	b = le.AppendUint64(b, uint64(edgeID))
	return append(b, payload...)
}

// TestLinkFrameCarriesClock: the prefix carries the arrival clock, the
// sender's clock and wall time at send completion and the edge id; the
// receiver synchronises to the arrival, records the flow edge the in-process
// mailbox path records from the same fields, and the payload is what follows.
func TestLinkFrameCarriesClock(t *testing.T) {
	const id = 2<<40 | 7
	m := perfmodel.Hopper()
	w := NewWorld(2, m, 1)
	tl := trace.NewTimeline(2)
	w.SetTimeline(tl)
	err := w.RunLink(0, cannedLink{frame: linkFrame(2.5, 2.25, 1234, id, "hi")}, func(c *Comm) error {
		if got := string(c.Recv(1, 5)); got != "hi" || c.Clock() != 2.5 {
			t.Errorf("payload %q clock %v, want hi at 2.5", got, c.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxClock() != 2.5 {
		t.Fatalf("MaxClock %v", w.MaxClock())
	}
	edges := tl.FlowEdges()
	if len(edges) != 1 {
		t.Fatalf("%d flow edges, want 1", len(edges))
	}
	e := edges[0]
	e.RecvWallNs = 0
	want := trace.FlowEdge{ID: id, Src: 1, Dst: 0, Tag: 5, Bytes: 2,
		SendVirtSec: 2.25, RecvVirtSec: 2.5, SendWallNs: 1234,
		LatencySec: m.Ts, BandwidthSec: m.PtoP(2) - m.Ts}
	if e != want {
		t.Fatalf("edge %+v, want %+v", e, want)
	}
	if segs := tl.Segments()[0]; len(segs) != 1 || segs[0].Kind != trace.SegWait || segs[0].EdgeID != id {
		t.Fatalf("segments %+v, want one wait on edge %d", segs, id)
	}
}

// sentLink keeps the last frame sent over it.
type sentLink struct{ frame *[]byte }

func (l sentLink) Send(_, _ int, b []byte) error        { *l.frame = b; return nil }
func (sentLink) RecvAt(int, int) ([]byte, int64, error) { return nil, 0, errors.New("no frames") }

// TestLinkSendCarriesEdge: a traced rank on a link names its send's edge
// (rank+1)<<40 | n in the frame prefix and in its latency and bandwidth
// segments, so the receiving process records the edge those segments name.
func TestLinkSendCarriesEdge(t *testing.T) {
	var frame []byte
	w := NewWorld(3, perfmodel.Hopper(), 1)
	tl := trace.NewTimeline(3)
	w.SetTimeline(tl)
	var sent float64
	if err := w.RunLink(2, sentLink{&frame}, func(c *Comm) error {
		c.Send(0, 4, []byte("abc"))
		sent = c.Clock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const id = 3<<40 | 1
	le := binary.LittleEndian
	if len(frame) != linkPrefix+3 || string(frame[linkPrefix:]) != "abc" {
		t.Fatalf("frame %x", frame)
	}
	arrival, sendClock := math.Float64frombits(le.Uint64(frame)), math.Float64frombits(le.Uint64(frame[8:]))
	if arrival != sent || sendClock != sent || int64(le.Uint64(frame[16:])) <= 0 || le.Uint64(frame[24:]) != id {
		t.Fatalf("prefix: arrival %v send clock %v wall %d edge %#x; sender clock %v, want edge %#x",
			arrival, sendClock, int64(le.Uint64(frame[16:])), le.Uint64(frame[24:]), sent, uint64(id))
	}
	for _, sg := range tl.Segments()[2] {
		if sg.EdgeID != id {
			t.Fatalf("segment %+v does not name edge %#x", sg, uint64(id))
		}
	}
}

// TestLinkFailureIsTyped: a transport error keeps its cause and its type on
// both operations.
func TestLinkFailureIsTyped(t *testing.T) {
	cause := errors.New("wire cut")
	for _, op := range []string{"send", "recv"} {
		w := NewWorld(2, perfmodel.Hopper(), 1)
		err := w.RunLink(1, cannedLink{err: cause}, func(c *Comm) error {
			if op == "send" {
				c.Send(0, 3, []byte("x"))
			} else {
				c.Recv(0, 3)
			}
			return nil
		})
		var le *LinkError
		if !errors.As(err, &le) || le.Op != op || !errors.Is(err, cause) {
			t.Fatalf("%s: %v", op, err)
		}
		if lost := w.Stats().LostRanks(); len(lost) != 1 || lost[0] != 1 {
			t.Fatalf("%s: lost ranks %v", op, lost)
		}
	}
	if err := NewWorld(2, perfmodel.Hopper(), 1).RunLink(2, cannedLink{}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("rank outside the world accepted")
	}
}
