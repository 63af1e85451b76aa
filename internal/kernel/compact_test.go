package kernel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"casvm/internal/la"
)

// compactTol bounds how far an entry of a compacted block's whole fill may
// sit from Eval over the CSR rows, relative to max(1, |Eval|): the dense
// copy's dot products and norms are the CSR rows' up to rounding, summed in
// Dot's accumulator layout instead of SpDot's.
const compactTol = 1e-14

// compacted returns a as fillWhole evaluates it when a compacts at
// compactDensity — its dense copy over the column support, as one matrix
// rather than the copy's chunked parts — and nil when it does not.
func compacted(a *la.Matrix) *la.Matrix {
	dc, ok := compact(a, compactDensity)
	dc.releaseBelow(a.Rows())
	if !ok {
		return nil
	}
	var s la.ColumnSupport
	w := s.Set(a, maxCompactWidth)
	return s.Compact(a, 0, a.Rows(), make([]float64, a.Rows()*w))
}

// nearCSR fails t unless row is within compactTol of K(i, ·) over the CSR
// rows of a.
func nearCSR(t *testing.T, p Params, a *la.Matrix, i int, row []float64) {
	t.Helper()
	want := make([]float64, a.Rows())
	p.Row(a, i, want)
	for j, v := range row {
		if math.Abs(v-want[j]) > compactTol*max(1, math.Abs(want[j])) {
			t.Fatalf("kind=%v row %d col %d: compacted %v, CSR Eval %v (|Δ| %g)",
				p.Kind, i, j, v, want[j], math.Abs(v-want[j]))
		}
	}
}

// wholeAllocBytes is what one whole fill of a fresh cache over a allocates,
// from an empty chunk pool, and the number of storage chunks the cache holds
// after it: a fill that takes no pool chunk beyond the cache's own allocates
// less than one chunk more than those.
func wholeAllocBytes(p Params, a *la.Matrix) (bytes uint64, own int) {
	c := NewRowCache(p, a, a.Rows())
	emptySlabPool()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Row(0)
	runtime.ReadMemStats(&after)
	own = len(c.lru.chunks)
	c.Release()
	return after.TotalAlloc - before.TotalAlloc, own
}

// TestCompactedFillOracle: a CSR block dense enough on its column support is
// whole-filled over its dense copy. Every entry is Eval over the compacted
// matrix bit for bit and within compactTol of CSR Eval, over NaN-poisoned
// pool chunks; a Gaussian diagonal entry is exactly Diag's 1; the flop charge
// is the CSR formula's (wholeFillFlops), so the virtual clock does not see the
// copy; and the copy's chunks come from the pool, beyond the cache's own. The
// blocks are one FCFS block of casvm-sparse's shape at support densities 0.2
// and 0.06, whose 680-column support leaves 16 rows to a part of the copy,
// so 16-row blocks cross part boundaries behind the cache's 87-row chunks.
func TestCompactedFillOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for k, a := range []*la.Matrix{supportMat(rng, 188, 2048, 40, 200), supportMat(rng, 188, 2048, 40, 680)} {
		cm := compacted(a)
		if cm == nil {
			t.Fatalf("block %d did not compact", k)
		}
		m := a.Rows()
		for _, p := range []Params{RBF(1.0 / 80), {Kind: Polynomial, Coef: 1, Degree: 2},
			{Kind: Linear}, {Kind: Sigmoid, ScaleA: 0.01, Coef: -1}} {
			poisonSlabPool(8)
			c := NewRowCache(p, a, m)
			for i := range m {
				row := c.Row(i)
				for j, v := range row {
					if want := p.Eval(cm, i, cm, j); v != want {
						t.Fatalf("width %d kind=%v (%d,%d): whole fill %v, Eval over the copy %v",
							cm.Features(), p.Kind, i, j, v, want)
					}
				}
				nearCSR(t, p, a, i, row)
				if p.Kind == Gaussian && (row[i] != 1 || c.Diag(i) != 1) {
					t.Fatalf("width %d: K(%d,%d) = %v, Diag %v, want exactly 1", cm.Features(), i, i, row[i], c.Diag(i))
				}
			}
			if _, _, f := c.Stats(); f != wholeFillFlops(a, int(c.lru.chunkRows)) {
				t.Fatalf("width %d kind=%v: flops %v, CSR formula %v", cm.Features(), p.Kind, f,
					wholeFillFlops(a, int(c.lru.chunkRows)))
			}
			c.Release()
		}
		if got, own := wholeAllocBytes(RBF(1.0/80), a); got < uint64(own+1)*slabChunkBytes {
			t.Fatalf("width %d: the whole fill allocated %d bytes over an empty pool, "+
				"less than its %d chunks and the copy's", cm.Features(), got, own)
		}
	}
}

// TestCompactedFillDeclinesRandomSupports holds the rule to real-looking
// rows, whose columns are drawn per row rather than per cluster: 40 of 2,048
// columns per row (a support of about 2,000, wider than a copy may be), and 8
// of 600 (a support of about 570 at density 0.014). The rule declines both;
// the whole fill is then Eval over the CSR rows bit for bit, and over an
// empty pool it allocates less than one chunk beyond the cache's own — the
// fill took no chunk for a copy.
func TestCompactedFillDeclinesRandomSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, a := range []*la.Matrix{supportMat(rng, 188, 2048, 40, 2048), supportMat(rng, 188, 600, 8, 600)} {
		if dc, ok := compact(a, compactDensity); ok || dc.chunks != nil {
			t.Fatalf("%d features: a block of per-row random supports compacted", a.Features())
		}
		m := a.Rows()
		for _, p := range []Params{RBF(1.0 / 80), {Kind: Polynomial, Coef: 1, Degree: 2}} {
			poisonSlabPool(4)
			c := NewRowCache(p, a, m)
			want := make([]float64, m)
			for i := range m {
				p.Row(a, i, want)
				for j, v := range c.Row(i) {
					if v != want[j] {
						t.Fatalf("%d features kind=%v (%d,%d): whole fill %v, CSR Eval %v",
							a.Features(), p.Kind, i, j, v, want[j])
					}
				}
			}
			c.Release()
		}
		if got, own := wholeAllocBytes(RBF(1.0/80), a); got >= uint64(own+1)*slabChunkBytes {
			t.Fatalf("%d features: the whole fill allocated %d bytes over an empty pool, "+
				"a chunk beyond its own %d", a.Features(), got, own)
		}
	}
}
