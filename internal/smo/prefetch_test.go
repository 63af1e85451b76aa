package smo

import (
	"math/rand"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

// TestTiledPrefetchMatchesUnprefetched proves the pair prefetch (both
// working-set kernel rows filled through one shared-streaming tile before
// PairDeltas) leaves the whole training trajectory untouched: multipliers,
// bias and iteration counts are bit-identical with the prefetch disabled,
// across cache sizes, kernels, storage formats — the same
// way TestFusedMatchesUnfused pins the fused pass. Flop totals are equal while
// nothing is evicted; once the cache is full the pair may evaluate one entry
// per iteration that the demand fills copy (the second victim's column, see
// kernel.RowCache.PrefetchPair), never fewer.
func TestTiledPrefetchMatchesUnprefetched(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	de, y := twoBlobs(rng, 150, 2, 0.9)
	sp := sparseCopy(de)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"first-order", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}},
		{"small-cache", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), CacheRows: 4}},
		{"linear", Config{C: 1, Tol: 1e-3, Kernel: kernel.Params{Kind: kernel.Linear}, MaxIter: 500}},
	}
	for _, tc := range cases {
		for _, mat := range []struct {
			name string
			x    *la.Matrix
		}{{"dense", de}, {"sparse", sp}} {
			on := tc.cfg
			off := on
			off.disableTilePrefetch = true
			want, err := Solve(mat.x, y, off, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Solve(mat.x, y, on, nil)
			if err != nil {
				t.Fatal(err)
			}
			name := tc.name + "/" + mat.name
			if tc.cfg.CacheRows == 0 {
				requireIdentical(t, name, got, want)
				continue
			}
			extra := got.Flops - want.Flops
			if bound := float64(got.Iters * (2*mat.x.Features() + 1)); extra < 0 || extra > bound {
				t.Fatalf("%s: prefetched flops %v, unprefetched %v: difference outside [0, %v]",
					name, got.Flops, want.Flops, bound)
			}
			requireSameSolution(t, name, got, want)
		}
	}
}

// TestColumnsMatchCrossRowReference pins the distributed pair update —
// FillColumn for each sample, then ApplyColumns — against the arithmetic it
// stands for, written out by hand: one CrossRow and one axpy per sample,
// high before low. Identical f vectors and identical flop charges, for every
// pairing of local and external storage and both kernel families.
func TestColumnsMatchCrossRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	de, y := twoBlobs(rng, 80, 2, 0.8)
	sp := sparseCopy(de)
	for _, mat := range []struct {
		name   string
		x, ext *la.Matrix
	}{{"dense", de, de}, {"sparse", sp, sp}, {"dense×sparse", de, sp}, {"sparse×dense", sp, de}} {
		for _, p := range []kernel.Params{kernel.RBF(0.4), {Kind: kernel.Linear}} {
			s, err := New(mat.x, y, Config{C: 1, Tol: 1e-3, Kernel: p}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ext := mat.ext.Subset([]int{3, 117})
			m := mat.x.Rows()
			want := append([]float64(nil), s.f...)
			wantFlops := float64(4 * m)
			buf := make([]float64, m)
			for j, coef := range []float64{0.25 * 1, 0.5 * -1} {
				wantFlops += p.CrossRow(mat.x, ext, j, buf)
				la.Axpy(coef, buf, want)
			}

			s.TakeFlops()
			colH := make([]float64, m)
			colL := make([]float64, m)
			s.FillColumn(ext, 0, colH)
			s.FillColumn(ext, 1, colL)
			s.ApplyColumns(colH, 1, 0.25, colL, -1, 0.5)
			if got := s.TakeFlops(); got != wantFlops {
				t.Fatalf("%s/%v: flops %v, want %v", mat.name, p.Kind, got, wantFlops)
			}
			for i := range want {
				if s.f[i] != want[i] {
					t.Fatalf("%s/%v: f[%d] %v, want %v", mat.name, p.Kind, i, s.f[i], want[i])
				}
			}
		}
	}
}
