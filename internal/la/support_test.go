package la

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestColumnSupport: Set finds the sorted union of the stored columns, and a
// compacted row holds each stored value at its column's place in that union
// and zero elsewhere, over a NaN-filled destination — so its norm and its dot
// with any other compacted row are the CSR rows' up to rounding. A support
// wider than the limit is refused and leaves the position table clear: the
// next Set over the same table finds a support from scratch.
func TestColumnSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var s ColumnSupport
	for trial := range 40 {
		a := randSparse(rng, 1+rng.Intn(40), 1+rng.Intn(300), rng.Float64()*0.3)
		var want []int32
		for _, f := range a.idx {
			if !slices.Contains(want, f) {
				want = append(want, f)
			}
		}
		slices.Sort(want)
		if len(want) > 0 {
			if w := s.Set(a, len(want)-1); w != 0 {
				t.Fatalf("trial %d: a %d-column support under a limit of %d: width %d", trial, len(want), len(want)-1, w)
			}
		}
		w := s.Set(a, len(want))
		if w != len(want) || !slices.Equal(s.cols, want) {
			t.Fatalf("trial %d: support %v (width %d), want %v", trial, s.cols, w, want)
		}
		m := a.Rows()
		dst := make([]float64, m*w+3)
		for k := range dst {
			dst[k] = math.NaN()
		}
		lo := rng.Intn(m)
		c := s.Compact(a, lo, m, dst)
		if c.Rows() != m-lo || c.Features() != w || c.Sparse() {
			t.Fatalf("trial %d: compacted %d×%d sparse=%v", trial, c.Rows(), c.Features(), c.Sparse())
		}
		full := make([]float64, a.Features())
		for i := lo; i < m; i++ {
			a.RowInto(i, full)
			for k, f := range want {
				if got := c.DenseRow(i - lo)[k]; got != full[f] {
					t.Fatalf("trial %d: row %d column %d: %v, CSR %v", trial, i, f, got, full[f])
				}
			}
			ii, iv := a.SparseRow(i)
			for j := lo; j < m; j++ {
				ji, jv := a.SparseRow(j)
				got, csr := Dot(c.DenseRow(i-lo), c.DenseRow(j-lo)), SpDot(ii, iv, ji, jv)
				if math.Abs(got-csr) > 1e-13*max(1, math.Abs(csr)) {
					t.Fatalf("trial %d: dot (%d,%d) over the support %v, CSR %v", trial, i, j, got, csr)
				}
			}
		}
		s.Release()
		if slices.ContainsFunc(s.pos, func(p int32) bool { return p != 0 }) {
			t.Fatalf("trial %d: Release left the position table dirty", trial)
		}
	}
}
