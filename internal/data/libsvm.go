package data

import (
	"bufio"
	"fmt"
	"io"

	"casvm/internal/la"
)

// WriteLIBSVM emits (x, y) in LIBSVM text format with 1-based indices.
// Zero entries of dense matrices are omitted.
func WriteLIBSVM(w io.Writer, x *la.Matrix, y []float64) error {
	if x.Rows() != len(y) {
		return fmt.Errorf("data: write: %d rows, %d labels", x.Rows(), len(y))
	}
	bw := bufio.NewWriter(w)
	for i := 0; i < x.Rows(); i++ {
		if _, err := fmt.Fprintf(bw, "%g", y[i]); err != nil {
			return err
		}
		if x.Sparse() {
			ix, vx := x.SparseRow(i)
			for k, j := range ix {
				if _, err := fmt.Fprintf(bw, " %d:%g", j+1, vx[k]); err != nil {
					return err
				}
			}
		} else {
			row := x.DenseRow(i)
			for j, v := range row {
				if v == 0 {
					continue
				}
				if _, err := fmt.Fprintf(bw, " %d:%g", j+1, v); err != nil {
					return err
				}
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
