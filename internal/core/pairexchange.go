package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/mpi"
	"casvm/internal/smo"
)

// Dis-SMO's per-iteration exchange: one allreduce whose payload is the
// rank's two working-set candidates and whose result is the global (high,
// low) pair, plus the replicated column cache that lets most rounds travel
// without rows.
//
// Wire form of one candidate (little endian), two per payload, high first:
//
//	float64 val     the candidate's f value (±Inf when the set is empty)
//	int32   rank    owner
//	int32   index   owner-local row, −1 when the set is empty
//	float64 alpha   current multiplier
//	int8    y       label, ±1 (0 when empty)
//	uint32  rowLen  bytes of row that follow, 0 when none is attached
//	[]byte  row     the sample as a 1-row la wire matrix
//
// A row is attached exactly when the candidate's global id is not resident
// in the sender's column cache. Every rank touches and inserts the same two
// winners in the same order each round and nothing else, so the resident
// set is the same everywhere and "resident here" means "resident at every
// receiver": a winner's row crosses the wire once per residency.

const candHeader = 29

// candidate is one decoded working-set candidate. row aliases the payload
// it was decoded from.
type candidate struct {
	val   float64
	rank  int32
	index int32
	alpha float64
	y     int8
	row   []byte
}

func appendCandidate(buf []byte, w candidate) []byte {
	return append(appendCandHeader(buf, w, len(w.row)), w.row...)
}

// appendCandHeader appends w's fixed fields, announcing rowLen bytes of row
// for the caller to append behind them.
func appendCandHeader(buf []byte, w candidate, rowLen int) []byte {
	var h [candHeader]byte
	le := binary.LittleEndian
	le.PutUint64(h[0:], math.Float64bits(w.val))
	le.PutUint32(h[8:], uint32(w.rank))
	le.PutUint32(h[12:], uint32(w.index))
	le.PutUint64(h[16:], math.Float64bits(w.alpha))
	h[24] = byte(w.y)
	le.PutUint32(h[25:], uint32(rowLen))
	return append(buf, h[:]...)
}

// decodePair parses a two-candidate payload.
func decodePair(buf []byte) (high, low candidate, err error) {
	if high, buf, err = decodeCandidate(buf); err != nil {
		return
	}
	if low, buf, err = decodeCandidate(buf); err != nil {
		return
	}
	if len(buf) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(buf))
	}
	return
}

func decodeCandidate(buf []byte) (candidate, []byte, error) {
	if len(buf) < candHeader {
		return candidate{}, nil, fmt.Errorf("short candidate: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	w := candidate{
		val:   math.Float64frombits(le.Uint64(buf[0:])),
		rank:  int32(le.Uint32(buf[8:])),
		index: int32(le.Uint32(buf[12:])),
		alpha: math.Float64frombits(le.Uint64(buf[16:])),
		y:     int8(buf[24]),
	}
	n := uint64(le.Uint32(buf[25:]))
	buf = buf[candHeader:]
	if n > uint64(len(buf)) {
		return candidate{}, nil, fmt.Errorf("candidate row of %d bytes in %d", n, len(buf))
	}
	w.row = buf[:n:n]
	return w, buf[n:], nil
}

// pairWireError reports a pair-exchange payload a rank could not use:
// malformed bytes, an owner or index outside the block layout, or a winner
// whose row is neither in the rank's column cache nor attached. It fails
// the rank and so aborts the world: once a payload cannot be trusted the
// replicated caches may no longer agree, and stopping is the alternative to
// ranks silently training different models.
type pairWireError struct {
	rank, iter int
	reason     string
}

func (e *pairWireError) Error() string {
	return fmt.Sprintf("core: dis-smo rank %d iteration %d: pair exchange: %s", e.rank, e.iter, e.reason)
}

// blockStart is the first global row of rank r's block when m rows are
// split into p nearly-even contiguous blocks, the first m%p of them one row
// longer (scatterBlocks' layout): the base of the rank's global sample ids.
// blockStart(m, p, p) is m.
func blockStart(m, p, r int) int {
	base, rem := m/p, m%p
	if r < rem {
		return r * (base + 1)
	}
	return r*base + rem
}

// pairExchange is one rank's end of the exchange for one training attempt:
// the smo.Exchange that Dis-SMO runs smo's loop over.
type pairExchange struct {
	c         *mpi.Comm
	local     part
	solver    *smo.Solver
	kernel    kernel.Params
	m         int // global sample count
	base      int // global id of local row 0
	iter      int // the round in flight, for buffer parity and error reports
	cache     *kernel.ColumnCache
	high, low candidate // the round's winners, from Select for Columns

	// wire holds the payloads this rank builds — its own candidates and any
	// merged accumulators — appended back to back, one buffer per parity of
	// iter. A buffer written in round k is next overwritten in round k+2.
	// By then this rank has left round k+1, whose reduce phase every rank
	// entered only after it was done with round k's verdict, so nothing a
	// round-k payload was sent to (the tree parent, or for rank 0's verdict
	// the whole world) can still be reading it.
	wire [2][]byte
}

func newPairExchange(c *mpi.Comm, local part, solver *smo.Solver, p Params, m int) *pairExchange {
	// The capacity rule of smo.Config.CacheRows, applied to the global m so
	// that every rank sizes its replica alike.
	capacity := p.colCacheRows
	if capacity <= 0 {
		capacity = min(m, 1024)
	}
	return &pairExchange{
		c: c, local: local, solver: solver, kernel: p.Kernel, m: m,
		base:  blockStart(m, c.Size(), c.Rank()),
		cache: kernel.NewColumnCache(m, capacity, local.x),
	}
}

func (ex *pairExchange) wireErr(format string, args ...any) error {
	return &pairWireError{rank: ex.c.Rank(), iter: ex.iter, reason: fmt.Sprintf(format, args...)}
}

// appendOwn encodes this rank's candidate for one side of the pair.
func (ex *pairExchange) appendOwn(buf []byte, s smo.Side) []byte {
	w := candidate{val: s.F, rank: int32(ex.c.Rank()), index: int32(s.Row), alpha: s.Alpha, y: int8(s.Y)}
	if s.Row < 0 || ex.cache.Resident(ex.base+s.Row) {
		return appendCandidate(buf, w)
	}
	// First use (or evicted since): the row rides along, encoded in place.
	rows := []int{s.Row}
	buf = appendCandHeader(buf, w, ex.local.x.EncodedSize(rows))
	return ex.local.x.AppendRows(buf, rows)
}

// Select runs the round's allreduce over every rank's local extremes and
// returns the global pair: the smallest high and the largest low, ties to
// the lower rank. The scan's flops are charged first, so the clock reaches
// the collective with the rank's compute.
func (ex *pairExchange) Select(iter int, high, low smo.Side) (smo.Side, smo.Side, error) {
	ex.c.Charge(ex.solver.TakeFlops())
	ex.iter = iter
	buf := ex.appendOwn(ex.appendOwn(ex.wire[iter&1][:0], high), low)
	ex.wire[iter&1] = buf
	verdict, err := ex.c.AllreduceBytes(buf, ex.combine)
	if err == nil {
		ex.high, ex.low, err = decodePair(verdict)
	}
	if err != nil {
		return high, low, ex.wireErr("%v", err)
	}
	return ex.side(ex.high), ex.side(ex.low), nil
}

// side is a winner as the loop sees it: an empty set's candidate carries
// label 0, and only the owner gets its row.
func (ex *pairExchange) side(w candidate) smo.Side {
	s := smo.Side{F: w.val, Alpha: w.alpha, Y: float64(w.y), Row: -1}
	if int(w.rank) == ex.c.Rank() {
		s.Row = int(w.index)
	}
	return s
}

// Applied charges the round's column fills and f-update to the clock.
func (ex *pairExchange) Applied() { ex.c.Charge(ex.solver.TakeFlops()) }

// Stats returns the column cache's hits and misses.
func (ex *pairExchange) Stats() (hits, misses int64) { return ex.cache.Stats() }

// combine folds a child's payload into the accumulator: per side, keep the
// better candidate with whatever row it carries. An unchanged accumulator
// is returned as is; a changed one is re-encoded behind the round's earlier
// payloads, never over them (acc may be one of them).
func (ex *pairExchange) combine(acc, in []byte) ([]byte, error) {
	ah, al, err := decodePair(acc)
	if err != nil {
		return nil, err
	}
	bh, bl, err := decodePair(in)
	if err != nil {
		return nil, err
	}
	takeH := bh.val < ah.val || (bh.val == ah.val && bh.rank < ah.rank)
	takeL := bl.val > al.val || (bl.val == al.val && bl.rank < al.rank)
	if !takeH && !takeL {
		return acc, nil
	}
	if takeH {
		ah = bh
	}
	if takeL {
		al = bl
	}
	buf := ex.wire[ex.iter&1]
	n := len(buf)
	buf = appendCandidate(appendCandidate(buf, ah), al)
	ex.wire[ex.iter&1] = buf
	return buf[n:], nil
}

// Columns returns the two winners' kernel values from their cache slots,
// inserting a winner whose id is not resident from the row the verdict
// carries. Both resident winners are touched before either insert, so the
// slot an insert evicts is never the other winner's (capacity ≥ 2); the
// order is the same on every rank. K(high, low) comes from the two
// resident samples themselves, identically on every rank.
func (ex *pairExchange) Columns() (smo.Pair, error) {
	gh, err := ex.globalID(ex.high)
	if err != nil {
		return smo.Pair{}, err
	}
	gl, err := ex.globalID(ex.low)
	if err != nil {
		return smo.Pair{}, err
	}
	if gh == gl {
		return smo.Pair{}, ex.wireErr("sample %d won both sides", gh)
	}
	c := ex.cache
	sh, sl := c.Get(gh), c.Get(gl)
	if sh < 0 {
		if sh, err = ex.insert(gh, ex.high); err != nil {
			return smo.Pair{}, err
		}
	}
	if sl < 0 {
		if sl, err = ex.insert(gl, ex.low); err != nil {
			return smo.Pair{}, err
		}
	}
	xh, rh := c.Sample(sh)
	xl, rl := c.Sample(sl)
	return smo.Pair{
		Khh: c.Diag(sh), Kll: c.Diag(sl), Khl: ex.kernel.Eval(xh, rh, xl, rl),
		ColH: c.Column(sh), ColL: c.Column(sl),
	}, nil
}

// globalID validates a winner against the block layout and returns its
// global sample id.
func (ex *pairExchange) globalID(w candidate) (int, error) {
	p := ex.c.Size()
	if w.rank < 0 || int(w.rank) >= p {
		return 0, ex.wireErr("winner owned by rank %d of %d", w.rank, p)
	}
	start, end := blockStart(ex.m, p, int(w.rank)), blockStart(ex.m, p, int(w.rank)+1)
	if w.index < 0 || int(w.index) >= end-start {
		return 0, ex.wireErr("winner index %d outside rank %d's %d rows", w.index, w.rank, end-start)
	}
	if w.y != 1 && w.y != -1 {
		return 0, ex.wireErr("winner label %d", w.y)
	}
	return start + int(w.index), nil
}

// insert checks a winner's attached row — one row of the local block's
// width and storage kind — before it takes a cache slot, then decodes the
// row into the slot and fills its kernel column and diagonal: the only
// kernel evaluations against the local block this rank pays for the sample
// while it stays resident. A dense row decodes straight into the slot's row
// of the working set; a CSR row keeps its own 1-row matrix, decoded (and
// its structure checked) before the slot is taken.
func (ex *pairExchange) insert(g int, w candidate) (int32, error) {
	if len(w.row) == 0 {
		return -1, ex.wireErr("row of sample %d is neither cached nor attached", g)
	}
	lx := ex.local.x
	rows, n, sparse, err := la.EncodedShape(w.row)
	if err == nil && (rows != 1 || n != lx.Features() || sparse != lx.Sparse()) {
		err = fmt.Errorf("%d×%d (sparse=%v), want 1×%d (sparse=%v)", rows, n, sparse, lx.Features(), lx.Sparse())
	}
	var x *la.Matrix
	if err == nil && sparse {
		x, err = la.DecodeMatrix(w.row)
	}
	if err != nil {
		return -1, ex.wireErr("row of sample %d: %v", g, err)
	}
	s := ex.cache.Put(g, x)
	ws, r := ex.cache.Sample(s)
	if !sparse {
		if err := ws.DecodeRowInto(r, w.row); err != nil {
			return -1, ex.wireErr("row of sample %d: %v", g, err)
		}
	}
	ex.cache.SetDiag(s, ex.kernel.Eval(ws, r, ws, r))
	ex.solver.FillColumn(ws, r, ex.cache.Column(s))
	return s, nil
}
