package la

import "sync"

// ScatteredRow is one sparse row scattered over the feature axis so that its
// inner product with any other sparse row is a single pass over that row's
// stored entries: pos[f] is 1 + the position of feature f in the row, 0 when
// the row does not store f. A kernel-row fill reuses one row against every
// column, so the two-pointer merge of SpDot — which re-walks the fixed row
// per column, ~2·nnz unpredictable steps — becomes one table build and one
// predictable gather per column.
//
// The zero value is ready for Set. The table is cleared by walking the row's
// own indices (Release), never by a memset, so it is all-zero whenever no row
// is set — the invariant that lets Set skip initialisation.
type ScatteredRow struct {
	pos []int32
	idx []int32
	val []float64
}

// Set scatters the row (idx, val) — sorted, strictly increasing indices in
// [0, n) — replacing the row set before. Every row later passed to Dot must
// keep its indices in [0, n) as well. The slices are retained until the next
// Set or Release.
func (s *ScatteredRow) Set(n int, idx []int32, val []float64) {
	s.Release()
	if cap(s.pos) < n {
		s.pos = make([]int32, n)
	}
	s.pos = s.pos[:n]
	for k, f := range idx {
		s.pos[f] = int32(k) + 1
	}
	s.idx, s.val = idx, val[:len(idx)]
}

// Release clears the table and drops the row.
func (s *ScatteredRow) Release() {
	for _, f := range s.idx {
		s.pos[f] = 0
	}
	s.idx, s.val = nil, nil
}

// Dot returns the inner product of the scattered row with the sparse row
// (bi, bv). The result equals SpDot(row, b) — and SpDot(b, row), which is
// bitwise symmetric — bit for bit, accumulator grouping included: the merge
// visits every matching index pair at the top of its loop, where it peels a
// 4-aligned run into s0..s3 when the next three entries of both rows match
// too and otherwise adds the single product to s0. A run at row position p
// is exactly pos[bi[j+1..j+3]] == p+1..p+3, so the same greedy left-to-right
// grouping falls out of one walk over b.
func (s *ScatteredRow) Dot(bi []int32, bv []float64) float64 {
	pos, av := s.pos, s.val
	nb := len(bi)
	bv = bv[:nb]
	var s0, s1, s2, s3 float64
	for j := 0; j < nb; {
		p := pos[bi[j]]
		if p == 0 {
			j++
			continue
		}
		if j+4 <= nb && pos[bi[j+1]] == p+1 && pos[bi[j+2]] == p+2 && pos[bi[j+3]] == p+3 {
			s0 += av[p-1] * bv[j]
			s1 += av[p] * bv[j+1]
			s2 += av[p+1] * bv[j+2]
			s3 += av[p+2] * bv[j+3]
			j += 4
			continue
		}
		s0 += av[p-1] * bv[j]
		j++
	}
	return (s0 + s1) + (s2 + s3)
}

// scatters recycles the position table MulTile's sparse×sparse case needs,
// so a tile allocates nothing once a table of the feature width exists.
var scatters = sync.Pool{New: func() any { return new(ScatteredRow) }}
