package smo

import (
	"encoding/binary"
	"fmt"

	"casvm/internal/la"
)

// Checkpoint is a deterministic snapshot of a solver's optimisation state:
// everything Restore needs to resume the exact trajectory from iteration
// Iters — multipliers, f, iteration count, and from them the bias and the
// model hash, bit for bit. The kernel-row cache is deliberately excluded: it
// is a pure performance artifact. The flop charge is therefore not part of
// what a restore reproduces: it depends on which rows are resident, a
// restored solver starts with none, and it pays again for every row the
// interrupted one already held (TestRestoreTrajectoryNotFlops).
type Checkpoint struct {
	// Iters is the iteration count the snapshot was taken at.
	Iters int
	// Final marks a snapshot taken after convergence: restoring it lets
	// Solve fast-forward the whole solve (replay after a crash skips
	// completed work entirely).
	Final bool

	// Alpha and F are the dual multipliers and optimality values, length m.
	Alpha []float64
	F     []float64
}

// Snapshot captures the solver's current state as a Checkpoint. The
// returned snapshot owns its slices (the solver keeps mutating the live
// state), so it can be stored or serialized freely.
func (s *Solver) Snapshot() *Checkpoint {
	return &Checkpoint{
		Iters: s.iters,
		Alpha: append([]float64(nil), s.alpha...),
		F:     append([]float64(nil), s.f...),
	}
}

// restore overwrites the solver's state from a checkpoint (called by New
// when cfg.Restore is set) and re-derives the working-set membership from the
// restored multipliers. The cached working-set extremes are left invalid, so
// the next LocalExtremes performs a fresh scan — which charges exactly what
// the fused cache it replaces would have. The row cache stays cold: the
// restored run's kernel-row charges are its own, not the interrupted run's.
func (s *Solver) restore(ck *Checkpoint) error {
	m := len(s.y)
	if len(ck.Alpha) != m || len(ck.F) != m {
		return fmt.Errorf("smo: checkpoint for %d samples, solver has %d", len(ck.Alpha), m)
	}
	copy(s.alpha, ck.Alpha)
	copy(s.f, ck.F)
	for i := range s.alpha {
		s.setMember(i)
	}
	s.iters = ck.Iters
	s.invalidateExtremes()
	return nil
}

// ckptMagic heads the serialized checkpoint format: magic · flags{Final} ·
// m (u32) · iters (u64) · α · f.
const ckptMagic = "casvm-ckpt v2\n"

// ckptHeader is the fixed-size prefix before the two float64 vectors.
const ckptHeader = len(ckptMagic) + 1 + 4 + 8

// Encode serializes the checkpoint with the repository's little-endian
// wire conventions (the same layout style internal/model uses): a magic
// header, fixed-width scalars, then the float64 vectors at full precision
// — snapshots must be exact for restored trajectories to be bit-identical.
func (ck *Checkpoint) Encode() []byte {
	buf := make([]byte, ck.Bytes())
	copy(buf, ckptMagic)
	hdr := buf[len(ckptMagic):ckptHeader]
	if ck.Final {
		hdr[0] = 1
	}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(ck.Alpha)))
	binary.LittleEndian.PutUint64(hdr[5:], uint64(ck.Iters))
	la.PutF64s(buf[ckptHeader:], ck.Alpha)
	la.PutF64s(buf[ckptHeader+8*len(ck.Alpha):], ck.F)
	return buf
}

// DecodeCheckpoint parses a buffer produced by Encode. Checkpoints travel
// only between processes of one build (memory and lease frames, nothing on
// disk), so any other magic — and any buffer that is not exactly the length
// its sample count implies — is rejected.
func DecodeCheckpoint(buf []byte) (*Checkpoint, error) {
	if len(buf) < len(ckptMagic) || string(buf[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("smo: not a checkpoint (bad magic)")
	}
	if len(buf) < ckptHeader {
		return nil, fmt.Errorf("smo: truncated checkpoint")
	}
	hdr := buf[len(ckptMagic):ckptHeader]
	m := int(binary.LittleEndian.Uint32(hdr[1:]))
	if want := ckptHeader + 16*m; len(buf) != want {
		return nil, fmt.Errorf("smo: checkpoint of %d samples is %d bytes, want %d", m, len(buf), want)
	}
	ck := &Checkpoint{
		Final: hdr[0]&1 != 0,
		Iters: int(binary.LittleEndian.Uint64(hdr[5:])),
		Alpha: make([]float64, m),
		F:     make([]float64, m),
	}
	la.GetF64s(ck.Alpha, buf[ckptHeader:])
	la.GetF64s(ck.F, buf[ckptHeader+8*m:])
	return ck, nil
}

// Bytes reports the serialized size of the checkpoint without encoding it,
// for cost accounting (the α–β model charges the write to stable store
// like any other transfer of this many bytes).
func (ck *Checkpoint) Bytes() int {
	return ckptHeader + 16*len(ck.Alpha)
}
