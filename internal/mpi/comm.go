package mpi

import (
	"fmt"
	"math/rand"
	"time"

	"casvm/internal/la"
	"casvm/internal/trace"
)

// Comm is one rank's handle onto the world: its identity, its virtual
// clock, its deterministic RNG, and the communication operations. A Comm is
// confined to the goroutine Run started for it.
type Comm struct {
	world *World
	wire  wire // the world's mailboxes, or a Link to ranks in other processes
	rank  int
	rng   *rand.Rand
	rec   *trace.Recorder // per-rank span recorder; nil when no timeline

	clock   float64 // virtual seconds
	collSeq int     // collective sequence number; identical across ranks
}

// Recorder returns this rank's timeline recorder (nil without a timeline;
// trace.Recorder methods are nil-safe, so callers record unconditionally).
func (c *Comm) Recorder() *trace.Recorder { return c.rec }

// beginColl opens a collective span carrying the current virtual clock.
// With no timeline attached this is a nil-receiver no-op costing one
// branch and zero allocations.
func (c *Comm) beginColl(name string) trace.Span {
	return c.rec.BeginVirt(trace.CatCollective, name, c.clock)
}

// endColl closes a collective span with the post-collective virtual clock.
func (c *Comm) endColl(sp trace.Span) { c.rec.EndVirt(sp, c.clock) }

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size P.
func (c *Comm) Size() int { return c.world.p }

// RNG returns this rank's deterministic random stream, seeded on first use
// (seeding costs ~10 µs, more than a small collective).
func (c *Comm) RNG() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.world.seed*1000003 + int64(c.rank)))
	}
	return c.rng
}

// Clock returns the rank's current virtual time in seconds.
func (c *Comm) Clock() float64 { return c.clock }

// Charge advances the virtual clock by the modeled time of f flops and
// books it as computation (and the flop count itself, for TotalFlops).
func (c *Comm) Charge(flops float64) {
	sec := c.world.machine.Compute(flops)
	c.rec.RecordSegment(trace.SegComp, c.clock, c.clock+sec, 0)
	c.clock += sec
	c.world.stats.AddComp(c.rank, sec)
	c.world.stats.AddFlops(c.rank, flops)
}

// ChargeTime advances the virtual clock by sec seconds of computation
// directly (used when a cost is known in time rather than flops).
func (c *Comm) ChargeTime(sec float64) {
	c.rec.RecordSegment(trace.SegComp, c.clock, c.clock+sec, 0)
	c.clock += sec
	c.world.stats.AddComp(c.rank, sec)
}

// SetPhase labels this rank's subsequently recorded clock segments with an
// algorithm phase name ("partition", "solve", …) so the critical-path
// decomposition can report per-phase splits. Nil-recorder no-op.
func (c *Comm) SetPhase(name string) { c.rec.SetPhase(name) }

// chargeComm advances the clock by sec and books it as communication.
func (c *Comm) chargeComm(sec float64) {
	c.clock += sec
	c.world.stats.AddComm(c.rank, sec)
}

// tag space: user tags must stay below collTagBase; collective-internal
// tags encode the collective sequence number so that consecutive
// collectives cannot cross-match.
const collTagBase = 1 << 24

func checkUserTag(tag int) {
	if tag < 0 || tag >= collTagBase {
		panic(fmt.Sprintf("mpi: user tag %d out of range [0,%d)", tag, collTagBase))
	}
}

// Send transfers data to rank dst with the given tag. The sender pays the
// α–β cost; data is retained by the runtime, so the caller must not modify
// it afterwards.
func (c *Comm) Send(dst, tag int, data []byte) {
	checkUserTag(tag)
	c.send(dst, tag, data)
}

func (c *Comm) send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.world.p {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	if dst == c.rank {
		// Local delivery: no network cost, no accounting, no fault
		// injection (nothing touches a wire), no flow edge (edgeID 0).
		c.wire.put(dst, message{src: c.rank, tag: tag, data: data, clock: c.clock})
		return
	}
	var delay float64
	var drop bool
	copies := 1
	if h := c.world.hook; h != nil {
		v := h.Intercept(c.rank, dst, tag, data)
		if v.CrashErr != nil {
			// The sending rank dies mid-send. Run recovers the panic,
			// aborts the world and surfaces the typed error.
			panic(v.CrashErr)
		}
		if v.Payload != nil {
			// Corruption replaces the body before costing: the wire
			// carries what was actually transmitted.
			data = v.Payload
		}
		drop, delay = v.Drop, v.DelaySec
		copies += v.Duplicates
	}
	// The α–β cost splits into the latency (ts) and bandwidth (tw·bytes)
	// segments of the sender's clock; both carry the flow-edge id so the
	// critical-path walk can hop from a receiver's wait back into this
	// send. Clock arithmetic is unchanged from the uninstrumented path:
	// the single `chargeComm(cost)` below is the only mutation.
	var edgeID, sendNs int64
	if c.rec != nil {
		edgeID = c.world.tl.NextEdgeID()
		lat := c.world.machine.Ts
		cost := c.world.machine.PtoP(len(data))
		c.rec.RecordSegment(trace.SegLatency, c.clock, c.clock+lat, edgeID)
		c.rec.RecordSegment(trace.SegBandwidth, c.clock+lat, c.clock+cost, edgeID)
	}
	c.chargeComm(c.world.machine.PtoP(len(data)))
	c.world.stats.RecordSend(c.rank, dst, len(data))
	if c.rec != nil {
		sendNs = time.Now().UnixNano()
	}
	if drop {
		// The sender paid the wire cost (the bytes left the NIC); the
		// receiver never sees the message, so no flow edge is delivered.
		return
	}
	arrival := c.clock + delay
	for i := 0; i < copies; i++ {
		// Duplicate deliveries share the original's edge id; the timeline
		// dedupes at export.
		c.wire.put(dst, message{src: c.rank, tag: tag, data: data, clock: arrival,
			edgeID: edgeID, sendClock: c.clock, sendNs: sendNs})
	}
}

// Recv blocks until a message with the given tag arrives from src
// (AnySource matches anyone) and returns its payload. The receiver's clock
// advances to at least the sender's post-send clock.
func (c *Comm) Recv(src, tag int) []byte {
	checkUserTag(tag)
	m := c.recv(src, tag)
	return m.data
}

func (c *Comm) recv(src, tag int) message {
	m := c.wire.take(c.rank, src, tag)
	if m.clock > c.clock {
		// The message arrived "in the future": the gap is imbalance/
		// dependency wait, attributed to the edge being waited on.
		c.rec.RecordSegment(trace.SegWait, c.clock, m.clock, m.edgeID)
		c.world.stats.AddComm(c.rank, m.clock-c.clock)
		c.clock = m.clock
	}
	if m.edgeID != 0 {
		// Receiver-side flow recording keeps each buffer single-owner.
		// The payload length matches what the sender costed (corruption
		// hooks swap the body before costing), so the receiver can
		// recompute the α–β split locally.
		c.rec.RecordFlow(trace.FlowEdge{
			ID: m.edgeID, Src: m.src, Dst: c.rank, Tag: m.tag, Bytes: len(m.data),
			SendVirtSec: m.sendClock, RecvVirtSec: c.clock,
			SendWallNs: m.sendNs, RecvWallNs: time.Now().UnixNano(),
			LatencySec:   c.world.machine.Ts,
			BandwidthSec: c.world.machine.PtoP(len(m.data)) - c.world.machine.Ts,
		})
	}
	return m
}

// SendF64 sends a []float64 at full precision.
func (c *Comm) SendF64(dst, tag int, x []float64) { c.Send(dst, tag, la.EncodeF64(x)) }

// RecvF64 receives a []float64 sent with SendF64.
func (c *Comm) RecvF64(src, tag int) []float64 {
	x, err := la.DecodeF64(c.Recv(src, tag))
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d RecvF64: %v", c.rank, err))
	}
	return x
}

// nextCollTag reserves a fresh internal tag range for one collective call.
// All ranks call collectives in the same order, so sequence numbers agree.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return collTagBase + c.collSeq
}

// Barrier blocks until every rank has entered it: the reduce-and-broadcast
// walk of AllreduceBytes over empty payloads.
func (c *Comm) Barrier() {
	c.allreduceBytes("Barrier", nil, func(acc, _ []byte) ([]byte, error) { return acc, nil })
}

// treeBcastBytes broadcasts data from root using a binomial tree rooted at
// rank `root` (implemented by rotating ranks so the root maps to 0).
// Returns the received payload on non-roots.
func (c *Comm) treeBcastBytes(root, tag int, data []byte) []byte {
	p := c.world.p
	vr := (c.rank - root + p) % p // virtual rank: root is 0
	if vr != 0 {
		// In a binomial broadcast, virtual rank vr receives from vr with
		// its highest set bit cleared.
		top := 1
		for top<<1 <= vr {
			top <<= 1
		}
		src := (vr - top + root) % p
		m := c.recv(src, tag)
		data = m.data
	}
	// Forward to children: vr + step for steps above our top bit.
	start := 1
	if vr != 0 {
		top := 1
		for top<<1 <= vr {
			top <<= 1
		}
		start = top << 1
	}
	for step := start; vr+step < p; step <<= 1 {
		dst := (vr + step + root) % p
		c.send(dst, tag, data)
	}
	return data
}

// Bcast broadcasts data from root to all ranks; every rank returns the
// payload (the root returns its own argument).
func (c *Comm) Bcast(root int, data []byte) []byte {
	sp := c.beginColl("Bcast")
	tag := c.nextCollTag()
	if c.rank != root {
		data = nil
	}
	data = c.treeBcastBytes(root, tag, data)
	c.endColl(sp)
	return data
}

// BcastF64 broadcasts a []float64 from root; all ranks return it.
func (c *Comm) BcastF64(root int, x []float64) []float64 {
	var buf []byte
	if c.rank == root {
		buf = la.EncodeF64(x)
	}
	buf = c.Bcast(root, buf)
	out, err := la.DecodeF64(buf)
	if err != nil {
		panic(fmt.Sprintf("mpi: BcastF64: %v", err))
	}
	return out
}

// Scatterv sends blocks[i] to rank i from root (linear scatter, as in MPI's
// default for irregular block sizes); each rank returns its block.
func (c *Comm) Scatterv(root int, blocks [][]byte) []byte {
	sp := c.beginColl("Scatterv")
	defer c.endColl(sp)
	tag := c.nextCollTag()
	if c.rank == root {
		if len(blocks) != c.world.p {
			panic(fmt.Sprintf("mpi: Scatterv needs %d blocks, got %d", c.world.p, len(blocks)))
		}
		for dst := 0; dst < c.world.p; dst++ {
			if dst != root {
				c.send(dst, tag, blocks[dst])
			}
		}
		return blocks[root]
	}
	return c.recv(root, tag).data
}

// Gatherv collects each rank's data at root; root returns the P blocks in
// rank order, others return nil. Root receives per source in rank order (a
// Link has no any-source receive); its clock ends at the latest arrival
// either way.
func (c *Comm) Gatherv(root int, data []byte) [][]byte {
	sp := c.beginColl("Gatherv")
	defer c.endColl(sp)
	tag := c.nextCollTag()
	if c.rank != root {
		c.send(root, tag, data)
		return nil
	}
	out := make([][]byte, c.world.p)
	out[root] = data
	for src := range out {
		if src != root {
			out[src] = c.recv(src, tag).data
		}
	}
	return out
}

// Alltoallv performs a personalized all-to-all exchange: rank r's
// blocks[d] is delivered to rank d, and the call returns the P blocks this
// rank received, indexed by source. The self-block is passed through
// locally without network cost. Receives are posted per source in rank
// order so that back-to-back Alltoallv calls cannot steal each other's
// messages.
func (c *Comm) Alltoallv(blocks [][]byte) [][]byte {
	p := c.world.p
	if len(blocks) != p {
		panic(fmt.Sprintf("mpi: Alltoallv needs %d blocks, got %d", p, len(blocks)))
	}
	sp := c.beginColl("Alltoallv")
	defer c.endColl(sp)
	tag := c.nextCollTag()
	for dst := 0; dst < p; dst++ {
		if dst != c.rank {
			c.send(dst, tag, blocks[dst])
		}
	}
	out := make([][]byte, p)
	out[c.rank] = blocks[c.rank]
	for src := 0; src < p; src++ {
		if src == c.rank {
			continue
		}
		out[src] = c.recv(src, tag).data
	}
	return out
}

// Allgatherv gathers every rank's block on all ranks (gather + broadcast of
// the concatenation with a length table).
func (c *Comm) Allgatherv(data []byte) [][]byte {
	sp := c.beginColl("Allgatherv")
	defer c.endColl(sp)
	blocks := c.Gatherv(0, data)
	// Root flattens with a length header; everyone decodes.
	var flat []byte
	if c.rank == 0 {
		flat = PackSections(blocks...)
	}
	flat = c.Bcast(0, flat)
	out, err := UnpackSections(flat, c.world.p)
	if err != nil {
		panic(fmt.Sprintf("mpi: Allgatherv: %v", err))
	}
	return out
}
