package tcpmpi

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"casvm/internal/trace"
)

// dialPair brings up a 2-rank world concurrently and returns both Comms.
func dialPair(t *testing.T, addrs []string, opt0, opt1 Options) (*Comm, *Comm) {
	t.Helper()
	var wg sync.WaitGroup
	comms := make([]*Comm, 2)
	errs := make([]error, 2)
	opts := []Options{opt0, opt1}
	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func(rank int) {
			defer wg.Done()
			comms[rank], errs[rank] = DialOptions(rank, addrs, opts[rank])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	return comms[0], comms[1]
}

// TestResumeReplayExactlyOnce: a frame written into a severed connection is
// redelivered by the reconnect's resume handshake — and only once. The
// listener is taken down first so the outage window is deterministic, the
// lost frame is placed in the replay ring exactly as a buffered-then-severed
// write would leave it (replay is the only redelivery path; retries are
// disabled), and the receiver's sequence state proves exactly-once delivery.
func TestResumeReplayExactlyOnce(t *testing.T) {
	addrs := freeAddrs(t, 2)
	reg := trace.NewRegistry()
	opt := Options{
		HeartbeatInterval:   50 * time.Millisecond,
		HeartbeatTimeout:    10 * time.Second, // failure signal is the read error, not silence
		Retries:             -1,               // no send retry: the resume replay must deliver
		ReconnectAttempts:   40,
		ReconnectBackoff:    20 * time.Millisecond,
		ReconnectBackoffMax: 50 * time.Millisecond,
	}
	opt1 := opt
	opt1.Metrics = reg
	c0, c1 := dialPair(t, addrs, opt, opt1)
	defer c0.Close()
	defer c1.Close()

	if err := c1.Send(0, 5, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if got, err := c0.Recv(1, 5); err != nil || string(got) != "before" {
		t.Fatalf("pre-outage message: %q, %v", got, err)
	}

	// Outage: stop accepting, then sever the live connection from rank 0's
	// side. Rank 1's reconnect attempts fail until the listener returns.
	c0.ln.Close()
	p01 := c0.peers[1]
	p01.mu.Lock()
	p01.conn.Close()
	p01.mu.Unlock()

	// A frame that was reported sent but died on the severed wire: place
	// it straight into rank 1's replay ring under the next sequence
	// number. A real Send into the sever reaches this state only when its
	// write lands in the kernel buffer before the read loop notices the
	// break — a timing race the test cannot force — so the state is
	// constructed directly. (The other outcome, a synchronous failure,
	// scrubs the frame instead; TestFailedSendScrub pins that half.)
	p10 := c1.peers[0]
	p10.sendMu.Lock()
	p10.sendSeq++
	p10.remember(sentFrame{seq: p10.sendSeq, tag: 6, data: []byte("lost")}, c1.opt.ReplayWindow)
	p10.sendMu.Unlock()

	time.Sleep(150 * time.Millisecond) // let a few reconnect dials fail

	ln, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	c0.ln = ln
	go c0.acceptLoop(ln)

	// Post-recovery traffic; retries are off, so poll until the fresh
	// connection is installed and its resume replay has drained.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c1.Send(0, 7, []byte("after")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("send never recovered after listener restore")
		}
		time.Sleep(20 * time.Millisecond)
	}

	type recv struct {
		data []byte
		err  error
	}
	got := make(chan recv, 2)
	go func() {
		for _, tag := range []int{6, 7} {
			b, err := c0.Recv(1, tag)
			got <- recv{b, err}
		}
	}()
	want := []string{"lost", "after"}
	for _, w := range want {
		select {
		case r := <-got:
			if r.err != nil || string(r.data) != w {
				t.Fatalf("want %q, got %q, %v", w, r.data, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("replay never delivered %q", w)
		}
	}

	// Exactly-once: nothing left queued — neither a wire-level duplicate
	// (receiver dedup) nor an application-level one (failed sends are
	// scrubbed from the replay ring, so only the delivered copies exist).
	c0.mu.Lock()
	queued := len(c0.queues[1])
	c0.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d duplicate frames queued after replay", queued)
	}
	p01.mu.Lock()
	recvSeq := p01.recvSeq
	p01.mu.Unlock()
	if recvSeq < 3 {
		t.Fatalf("receiver watermark %d, want ≥ 3 (at least before/lost/after)", recvSeq)
	}

	snap := reg.Snapshot()
	if snap["tcpmpi_reconnect_attempts_total"] < 2 {
		t.Fatalf("reconnect attempts %v, want ≥ 2 (listener was down)", snap["tcpmpi_reconnect_attempts_total"])
	}
	if snap["tcpmpi_reconnect_backoff_ms_total"] <= 0 {
		t.Fatal("no backoff time recorded across failed reconnects")
	}
	if snap["tcpmpi_replayed_frames_total"] < 1 {
		t.Fatal("resume handshake replayed nothing; delivery must have leaked through another path")
	}
	if snap["tcpmpi_reconnects_total"] < 1 {
		t.Fatal("no successful reconnect counted")
	}
}

// TestFailedSendScrub: finishSend is the exactly-once pivot — a send about
// to report failure either learns that a resume handshake already delivered
// its frame (success after all, frame retained) or scrubs the frame from
// the replay ring so no later reconnect can deliver a message the caller
// was told had failed.
func TestFailedSendScrub(t *testing.T) {
	c := &Comm{}
	p := &peer{}
	p.remember(sentFrame{seq: 1, tag: 5, data: []byte("a")}, 8)
	p.remember(sentFrame{seq: 2, tag: 5, data: []byte("b")}, 8)

	if c.finishSend(p, 2) {
		t.Fatal("unreplayed frame reported as delivered")
	}
	if frames := p.unacked(0); len(frames) != 1 || frames[0].seq != 1 {
		t.Fatalf("ring after scrub: %+v, want only seq 1", frames)
	}

	p.sendMu.Lock()
	p.replayedSeq = 1
	p.sendMu.Unlock()
	if !c.finishSend(p, 1) {
		t.Fatal("replayed frame not recognized as delivered")
	}
	if frames := p.unacked(0); len(frames) != 1 || frames[0].seq != 1 {
		t.Fatalf("replayed frame scrubbed from ring: %+v", frames)
	}
}

// TestReconnectAttemptsBounded: with the peer gone for good, the dialer
// makes exactly ReconnectAttempts dials (counted, with backoff recorded)
// and then declares the peer dead with a typed, descriptive error.
func TestReconnectAttemptsBounded(t *testing.T) {
	addrs := freeAddrs(t, 2)
	reg := trace.NewRegistry()
	opt := Options{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
	}
	opt1 := opt
	opt1.Metrics = reg
	opt1.ReconnectAttempts = 3
	opt1.ReconnectBackoff = 20 * time.Millisecond
	opt1.ReconnectBackoffMax = 40 * time.Millisecond
	c0, c1 := dialPair(t, addrs, opt, opt1)
	defer c1.Close()

	c0.Close() // rank 0 is gone for good; its port stays unbound

	_, err := c1.Recv(0, 9)
	if err == nil {
		t.Fatal("Recv from a dead rank succeeded")
	}
	if !strings.Contains(err.Error(), "reconnect attempts failed") {
		t.Fatalf("error does not describe the exhausted reconnect budget: %v", err)
	}
	snap := reg.Snapshot()
	if snap["tcpmpi_reconnect_attempts_total"] != 3 {
		t.Fatalf("reconnect attempts %v, want exactly 3", snap["tcpmpi_reconnect_attempts_total"])
	}
	if snap["tcpmpi_reconnect_backoff_ms_total"] <= 0 {
		t.Fatal("no backoff recorded between attempts")
	}
	if snap["tcpmpi_peer_failures_total"] != 1 {
		t.Fatalf("peer failures %v, want 1", snap["tcpmpi_peer_failures_total"])
	}
}

// TestFreshIncarnationResurrects: after a worker process dies, a brand-new
// process re-dials with the hello's fresh flag set. The coordinator resets
// its per-peer sequence state, so the new incarnation's frames — which
// restart at seq 1 — are delivered instead of being deduplicated against
// the dead incarnation's watermark, and coordinator→worker traffic resumes.
func TestFreshIncarnationResurrects(t *testing.T) {
	addrs := freeAddrs(t, 2)
	opt := Options{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Second, // coordinator waits out the respawn
	}
	c0, gen1 := dialPair(t, addrs, opt, opt)
	defer c0.Close()

	if err := gen1.Send(0, 11, []byte("first gen")); err != nil {
		t.Fatal(err)
	}
	if got, err := c0.Recv(1, 11); err != nil || string(got) != "first gen" {
		t.Fatalf("first incarnation: %q, %v", got, err)
	}
	gen1.Close() // the worker process dies

	gen2, err := DialOptions(1, addrs, opt)
	if err != nil {
		t.Fatalf("respawned worker could not rejoin: %v", err)
	}
	defer gen2.Close()

	// The new incarnation's first frame is seq 1 again; without the fresh
	// reset the coordinator's watermark (already 1) would swallow it.
	if err := gen2.Send(0, 12, []byte("second gen")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, err := c0.Recv(1, 12); err != nil || string(got) != "second gen" {
			t.Errorf("resurrected worker's message: %q, %v", got, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fresh incarnation's frame was deduplicated away")
	}

	if err := c0.Send(1, 13, []byte("welcome back")); err != nil {
		t.Fatalf("coordinator → resurrected worker: %v", err)
	}
	if got, err := gen2.Recv(0, 13); err != nil || string(got) != "welcome back" {
		t.Fatalf("return traffic: %q, %v", got, err)
	}
}

// unacked returns the retained frames with seq greater than after, in send
// order — what the resume handshake replays.
func (p *peer) unacked(after uint32) []sentFrame {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	var out []sentFrame
	for _, f := range p.ring {
		if f.seq > after {
			out = append(out, f)
		}
	}
	return out
}
