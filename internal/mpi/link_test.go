package mpi

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"casvm/internal/perfmodel"
)

// cannedLink answers every Recv with one fixed frame (or error) and
// swallows sends: the network as an adversary sees it.
type cannedLink struct {
	frame []byte
	err   error
}

func (l cannedLink) Send(int, int, []byte) error   { return l.err }
func (l cannedLink) Recv(int, int) ([]byte, error) { return l.frame, l.err }

// TestShortLinkFrameIsLinkError: a frame shorter than the clock prefix comes
// from the network, not from a bug here, so it must surface as a typed
// *LinkError — not a slice-bounds panic turned into "rank panicked".
func TestShortLinkFrameIsLinkError(t *testing.T) {
	for n := 0; n < clockPrefix; n++ {
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

// TestLinkFrameCarriesClock: the 8-byte prefix is the sender's virtual clock;
// the receiver synchronises to it and the payload is what follows.
func TestLinkFrameCarriesClock(t *testing.T) {
	frame := binary.LittleEndian.AppendUint64(nil, math.Float64bits(2.5))
	frame = append(frame, "hi"...)
	w := NewWorld(2, perfmodel.Hopper(), 1)
	err := w.RunLink(0, cannedLink{frame: frame}, func(c *Comm) error {
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
}

// TestLinkFailureIsTyped: a transport error keeps its cause and its type on
// both operations, and an any-source receive is refused rather than hung.
func TestLinkFailureIsTyped(t *testing.T) {
	cause := errors.New("wire cut")
	for _, op := range []string{"send", "recv"} {
		w := NewWorld(2, perfmodel.Hopper(), 1)
		err := w.RunLink(1, cannedLink{err: cause}, func(c *Comm) error {
			if op == "send" {
				c.Send(0, 3, []byte("x"))
			} else {
				c.Recv(AnySource, 3)
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
