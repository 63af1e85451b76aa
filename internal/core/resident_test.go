package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"casvm/internal/data"
	"casvm/internal/la"
)

// inputHash hashes the bits of every row of x and of y and, when norms is
// set, of every row's cached squared norm.
func inputHash(x *la.Matrix, y []float64, norms bool) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for i := 0; i < x.Rows(); i++ {
		if x.Sparse() {
			ix, vx := x.SparseRow(i)
			put(uint64(len(ix)))
			for k, j := range ix {
				put(uint64(j))
				put(math.Float64bits(vx[k]))
			}
		} else {
			for _, v := range x.DenseRow(i) {
				put(math.Float64bits(v))
			}
		}
		if norms {
			put(math.Float64bits(x.SqNormRow(i)))
		}
		put(math.Float64bits(y[i]))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestResidentBlocksLeaveInputUntouched: under casvm2 a rank's resident
// block is a view of the shared input. FCFS-CA and RA-CA jobs at P = 8, run
// at once over one input (dense and CSR, with and without its norm cache),
// leave the input's rows, labels and norm cache bit for bit as they were;
// under -race, a write into the shared storage from any rank is reported.
func TestResidentBlocksLeaveInputUntouched(t *testing.T) {
	dense := testSet(t, 400)
	sparse, err := data.Generate(data.MixtureSpec{
		Name: "core-sparse", Train: 360, Test: 90, Features: 400, Clusters: 4,
		Separation: 7, Noise: 1, PosFrac: []float64{0.5}, LabelNoise: 0.02,
		Margin: 1.0, Sparse: true, Density: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*data.Dataset{dense, sparse} {
		for _, normed := range []bool{false, true} {
			if normed {
				d.X.EnsureNorms()
			}
			before := inputHash(d.X, d.Y, normed)
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for k, m := range []Method{MethodFCFSCA, MethodRACA} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p := paramsFor(m, 8, d)
					p.Placement = PlacementDistributed
					_, errs[k] = Train(d.X, d.Y, p)
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if after := inputHash(d.X, d.Y, normed); after != before {
				t.Errorf("sparse=%v normed=%v: the input's hash moved from %s to %s", d.X.Sparse(), normed, before, after)
			}
		}
	}
}
