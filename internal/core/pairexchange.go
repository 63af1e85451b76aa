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
// split into p nearly-even contiguous blocks (the evenBlocks layout): the
// base of the rank's global sample ids.
func blockStart(m, p, r int) int {
	base, rem := m/p, m%p
	if r < rem {
		return r * (base + 1)
	}
	return r*base + rem
}

// pairExchange is one rank's end of the exchange for one training attempt.
type pairExchange struct {
	c      *mpi.Comm
	local  part
	solver *smo.Solver
	kernel kernel.Params
	m      int // global sample count
	base   int // global id of local row 0
	iter   int // the round in flight, for buffer parity and error reports
	cache  *kernel.ColumnCache

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
		cache: kernel.NewColumnCache(m, capacity, local.x.Rows()),
	}
}

func (ex *pairExchange) wireErr(format string, args ...any) error {
	return &pairWireError{rank: ex.c.Rank(), iter: ex.iter, reason: fmt.Sprintf(format, args...)}
}

// appendOwn encodes this rank's candidate for one side of the pair.
func (ex *pairExchange) appendOwn(buf []byte, val float64, index int) []byte {
	w := candidate{val: val, rank: int32(ex.c.Rank()), index: int32(index)}
	if index < 0 {
		return appendCandidate(buf, w)
	}
	w.alpha = ex.solver.Alpha()[index]
	w.y = int8(ex.local.y[index])
	if ex.cache.Resident(ex.base + index) {
		return appendCandidate(buf, w)
	}
	// First use (or evicted since): the row rides along, encoded in place.
	rows := []int{index}
	buf = appendCandHeader(buf, w, ex.local.x.EncodedSize(rows))
	return ex.local.x.AppendRows(buf, rows)
}

// reduce runs the round's allreduce over every rank's local extremes and
// returns the global pair: the smallest high and the largest low, ties to
// the lower rank.
func (ex *pairExchange) reduce(iter int, bHigh float64, iHigh int, bLow float64, iLow int) (high, low candidate, err error) {
	ex.iter = iter
	buf := ex.appendOwn(ex.wire[iter&1][:0], bHigh, iHigh)
	buf = ex.appendOwn(buf, bLow, iLow)
	ex.wire[iter&1] = buf
	verdict, err := ex.c.AllreduceBytes(buf, ex.combine)
	if err == nil {
		high, low, err = decodePair(verdict)
	}
	if err != nil {
		err = ex.wireErr("%v", err)
	}
	return high, low, err
}

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

// columns returns the two winners' cache entries, inserting a winner whose
// id is not resident from the row the verdict carries. Both resident winners
// are touched before either insert, so the entry an insert evicts is never
// the other winner (capacity ≥ 2); the order is the same on every rank.
func (ex *pairExchange) columns(high, low candidate) (eh, el *kernel.Column, err error) {
	gh, err := ex.globalID(high)
	if err != nil {
		return nil, nil, err
	}
	gl, err := ex.globalID(low)
	if err != nil {
		return nil, nil, err
	}
	if gh == gl {
		return nil, nil, ex.wireErr("sample %d won both sides", gh)
	}
	eh, el = ex.cache.Get(gh), ex.cache.Get(gl)
	if eh == nil {
		if eh, err = ex.insert(gh, high); err != nil {
			return nil, nil, err
		}
	}
	if el == nil {
		if el, err = ex.insert(gl, low); err != nil {
			return nil, nil, err
		}
	}
	return eh, el, nil
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

// insert decodes a winner's attached row into the cache and fills its
// kernel column and diagonal — the only kernel evaluations against the
// local block this rank pays for the sample while it stays resident.
func (ex *pairExchange) insert(g int, w candidate) (*kernel.Column, error) {
	if len(w.row) == 0 {
		return nil, ex.wireErr("row of sample %d is neither cached nor attached", g)
	}
	x, err := la.DecodeMatrix(w.row)
	if err != nil {
		return nil, ex.wireErr("row of sample %d: %v", g, err)
	}
	if lx := ex.local.x; x.Rows() != 1 || x.Features() != lx.Features() || x.Sparse() != lx.Sparse() {
		return nil, ex.wireErr("row of sample %d is %d×%d (sparse=%v), want 1×%d (sparse=%v)",
			g, x.Rows(), x.Features(), x.Sparse(), lx.Features(), lx.Sparse())
	}
	e := ex.cache.Put(g, x, float64(w.y))
	e.Diag = ex.kernel.Eval(x, 0, x, 0)
	ex.solver.FillColumn(x, 0, e.K)
	return e, nil
}
