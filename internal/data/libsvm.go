package data

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"casvm/internal/la"
)

// WriteLIBSVM emits (x, y) in LIBSVM text format with 1-based indices.
// Zero entries of dense matrices are omitted; every stored entry of a CSR
// matrix is written. The bytes are those of fmt's "%g" label and " %d:%g"
// pairs (each float in its shortest round-tripping form), formatted with
// strconv into one line buffer reused across rows.
func WriteLIBSVM(w io.Writer, x *la.Matrix, y []float64) error {
	if x.Rows() != len(y) {
		return fmt.Errorf("data: write: %d rows, %d labels", x.Rows(), len(y))
	}
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 1024)
	for i := 0; i < x.Rows(); i++ {
		line = strconv.AppendFloat(line[:0], y[i], 'g', -1, 64)
		if x.Sparse() {
			ix, vx := x.SparseRow(i)
			for k, j := range ix {
				line = appendPair(line, int(j), vx[k])
			}
		} else {
			for j, v := range x.DenseRow(i) {
				if v != 0 {
					line = appendPair(line, j, v)
				}
			}
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendPair appends " <j+1>:<v>", the bytes of fmt's " %d:%g".
func appendPair(line []byte, j int, v float64) []byte {
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(j)+1, 10)
	line = append(line, ':')
	return strconv.AppendFloat(line, v, 'g', -1, 64)
}
