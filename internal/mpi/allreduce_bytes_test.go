package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// minMaxLoc is the fused reduction Dis-SMO runs on AllreduceBytes, cut down
// to its locations: the payload is a min-candidate Loc followed by a
// max-candidate Loc, and combine keeps the better of each side, ties to the
// lower rank.
func minMaxLoc(c *Comm, lo, hi Loc) (Loc, Loc, error) {
	mine := append(encodeLoc(lo), encodeLoc(hi)...)
	out, err := c.AllreduceBytes(mine, func(acc, in []byte) ([]byte, error) {
		if len(in) != 2*locBytes {
			return nil, fmt.Errorf("payload of %d bytes", len(in))
		}
		for side, less := range []func(a, b float64) bool{
			func(a, b float64) bool { return a < b },
			func(a, b float64) bool { return a > b },
		} {
			a, _ := decodeLoc(acc[side*locBytes:][:locBytes])
			b, _ := decodeLoc(in[side*locBytes:][:locBytes])
			if less(b.Val, a.Val) || (b.Val == a.Val && b.Rank < a.Rank) {
				copy(acc[side*locBytes:], in[side*locBytes:][:locBytes])
			}
		}
		return acc, nil
	})
	if err != nil {
		return Loc{}, Loc{}, err
	}
	if len(out) != 2*locBytes {
		return Loc{}, Loc{}, fmt.Errorf("result of %d bytes", len(out))
	}
	a, _ := decodeLoc(out[:locBytes])
	b, _ := decodeLoc(out[locBytes:])
	return a, b, nil
}

// TestAllreduceBytesMatchesMinLocMaxLoc: at every world width up to 8,
// non-powers of two included, the fused reduction returns on every rank
// what AllreduceMinLoc and AllreduceMaxLoc return, on random inputs drawn
// from a handful of values so that ties (lower rank wins) are common.
func TestAllreduceBytesMatchesMinLocMaxLoc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for p := 1; p <= 8; p++ {
		for trial := 0; trial < 20; trial++ {
			lows := make([]float64, p)
			highs := make([]float64, p)
			for r := range lows {
				lows[r] = float64(rng.Intn(3))
				highs[r] = float64(rng.Intn(3))
			}
			w := testWorld(p)
			err := w.Run(func(c *Comm) error {
				r := c.Rank()
				lo := Loc{Val: lows[r], Rank: int32(r), Index: int32(10 * r)}
				hi := Loc{Val: highs[r], Rank: int32(r), Index: int32(10*r + 1)}
				gotLo, gotHi, err := minMaxLoc(c, lo, hi)
				if err != nil {
					return err
				}
				wantLo := c.AllreduceMinLoc(lo.Val, int(lo.Index))
				wantHi := c.AllreduceMaxLoc(hi.Val, int(hi.Index))
				if gotLo != wantLo || gotHi != wantHi {
					return fmt.Errorf("rank %d: got (%v, %v) want (%v, %v)", r, gotLo, gotHi, wantLo, wantHi)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d trial=%d: %v", p, trial, err)
			}
		}
	}
}

// TestAllreduceCounts pins what each reduction puts on the wire: 2(P−1)
// messages — P−1 up the reduce tree, P−1 down the broadcast tree — of the
// payload's size each. AllreduceSum and the location reductions are the
// same walk, so re-expressing them on AllreduceBytes must not (and did not)
// change a message or a byte; CA-SVM's 91 messages per job rest on that.
func TestAllreduceCounts(t *testing.T) {
	for p := 1; p <= 8; p++ {
		for _, tc := range []struct {
			name    string
			payload int
			run     func(c *Comm) error
		}{
			{"AllreduceBytes", 2 * locBytes, func(c *Comm) error {
				_, _, err := minMaxLoc(c, Loc{Rank: int32(c.Rank())}, Loc{Rank: int32(c.Rank())})
				return err
			}},
			{"AllreduceSum", 4 + 8*5, func(c *Comm) error { c.AllreduceSum(make([]float64, 5)); return nil }},
			{"AllreduceSumInt", 4 + 8*3, func(c *Comm) error { c.AllreduceSumInt(make([]int, 3)); return nil }},
			{"AllreduceMinLoc", locBytes, func(c *Comm) error { c.AllreduceMinLoc(1, c.Rank()); return nil }},
			{"AllreduceMaxLoc", locBytes, func(c *Comm) error { c.AllreduceMaxLoc(1, c.Rank()); return nil }},
		} {
			w := testWorld(p)
			if err := w.Run(tc.run); err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			msgs, bytes := w.Stats().TotalOps(), w.Stats().TotalBytes()
			if wantMsgs := int64(2 * (p - 1)); msgs != wantMsgs || bytes != wantMsgs*int64(tc.payload) {
				t.Errorf("%s p=%d: %d messages %d bytes, want %d messages %d bytes",
					tc.name, p, msgs, bytes, wantMsgs, wantMsgs*int64(tc.payload))
			}
		}
	}
}

// onePayload rewrites the n-th remote send of the world (1-based).
type onePayload struct {
	n       int
	payload []byte

	mu   sync.Mutex
	seen int
}

func (h *onePayload) Intercept(_, _, _ int, _ []byte) Verdict {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seen++
	if h.seen != h.n {
		return Verdict{}
	}
	return Verdict{Payload: h.payload}
}

// TestAllreduceBytesBadPayloadIsBoundedError: a hook that corrupts one
// payload (wrong length) or drops it (the frame arrives empty) makes the
// receiving rank's combine — or, on the way down, its caller's decode —
// fail; that rank's error aborts the world and every blocked peer returns,
// whichever hop was hit. (A hook that withholds the frame itself still
// deadlocks this runtime by design: it has no retransmission. The fault
// schedules model a lost frame as a late one for that reason.)
func TestAllreduceBytesBadPayloadIsBoundedError(t *testing.T) {
	const p = 5
	for _, payload := range [][]byte{{}, make([]byte, 2*locBytes+3)} {
		for n := 1; n <= 2*(p-1); n++ {
			w := testWorld(p)
			w.SetTransportHook(&onePayload{n: n, payload: payload})
			err := runWithDeadline(t, w, func(c *Comm) error {
				for round := 0; round < 3; round++ {
					l := Loc{Val: float64(c.Rank()), Rank: int32(c.Rank())}
					if _, _, err := minMaxLoc(c, l, l); err != nil {
						return fmt.Errorf("rank %d: %w", c.Rank(), err)
					}
				}
				return nil
			})
			if err == nil || errors.Is(err, ErrAborted) {
				t.Fatalf("send %d payload %d bytes: want the decoding rank's error, got %v", n, len(payload), err)
			}
		}
	}
}
