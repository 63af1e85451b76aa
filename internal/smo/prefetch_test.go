package smo

import (
	"math/rand"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

// TestTiledPrefetchMatchesUnprefetched proves the pair prefetch (both
// working-set kernel rows filled through one shared-streaming tile before
// the pair is solved) leaves the whole training trajectory untouched: multipliers,
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
// FillColumn for each sample, then the fused update — against the arithmetic it
// stands for, written out by hand: one cross-kernel row per sample (Eval of
// every local row against it) charged nnz(block) + (nnz_j+1)·m, and one axpy
// per sample, high before low. Identical f vectors and identical flop
// charges, for both storages (the external sample always has the local
// block's) and both kernel families.
func TestColumnsMatchCrossRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	de, y := twoBlobs(rng, 80, 2, 0.8)
	sp := sparseCopy(de)
	for _, mat := range []struct {
		name   string
		x, ext *la.Matrix
	}{{"dense", de, de}, {"sparse", sp, sp}} {
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
				for i := range buf {
					buf[i] = p.Eval(mat.x, i, ext, j)
				}
				wantFlops += float64(mat.x.NNZ() + (nnz(ext, j)+1)*m)
				la.Axpy(coef, buf, want)
			}

			s.TakeFlops()
			colH := make([]float64, m)
			colL := make([]float64, m)
			s.FillColumn(ext, 0, colH)
			s.FillColumn(ext, 1, colL)
			s.updateScan(colH, colL, 0.25*1, 0.5*-1)
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

// nnz is the stored entries of row j of a: its features when dense.
func nnz(a *la.Matrix, j int) int {
	if !a.Sparse() {
		return a.Features()
	}
	ix, _ := a.SparseRow(j)
	return len(ix)
}

// TestFillColumnFlopAccounting pins FillColumn's charge for both storage
// kinds. A dense block charges the dense bound (n + n)·m + m; a sparse one
// charges its stored entries, nnz(block) + (nnz_j+1)·m, not the dense
// Features()·m upper bound.
func TestFillColumnFlopAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const m, n = 40, 50
	data := make([]float64, m*n)
	for k := range data {
		if rng.Intn(5) == 0 {
			data[k] = rng.NormFloat64()
		}
	}
	de := la.NewDense(m, n, data)
	y := make([]float64, m)
	for i := range y {
		y[i] = float64(1 - 2*(i%2))
	}
	for _, x := range []*la.Matrix{de, sparseCopy(de)} {
		s, err := New(x, y, Config{C: 1, Kernel: kernel.RBF(0.2)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := float64((n+n)*m + m)
		if x.Sparse() {
			want = float64(x.NNZ() + (nnz(x, 3)+1)*m)
			if bound := float64((n+nnz(x, 3))*m + m); want >= bound {
				t.Fatalf("test matrix not sparse enough: nnz charge %v !< dense bound %v", want, bound)
			}
		}
		s.TakeFlops()
		s.FillColumn(x, 3, make([]float64, m))
		if got := s.TakeFlops(); got != want {
			t.Errorf("sparse=%v: flops %v, want %v", x.Sparse(), got, want)
		}
	}
}
