package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"casvm/internal/la"
)

// FuzzReadLIBSVM asserts the LIBSVM parser never panics and that whatever
// it accepts is internally consistent. Run with `go test -fuzz
// FuzzReadLIBSVM ./internal/data` for extended exploration; the seed
// corpus runs in normal test mode.
func FuzzReadLIBSVM(f *testing.F) {
	seeds := []string{
		"",
		"+1 1:0.5 3:2.0\n-1 2:1\n",
		"1\n",
		"abc\n",
		"1 0:1\n",
		"1 1:1 1:2\n",
		"1 999999:1\n",
		"-1 2:1e300\n# comment only\n",
		"+1 1:nan\n",
		strings.Repeat("1 1:1\n", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		x, y, err := ReadLIBSVM(strings.NewReader(in), 0)
		sx, sy, serr := ReadLIBSVMStream(strings.NewReader(in), 0)
		if err != nil {
			// The streaming reader must reject exactly the same inputs.
			if serr == nil {
				t.Fatalf("stream accepted input the grow reader rejects: %v", err)
			}
			return
		}
		if serr != nil {
			t.Fatalf("stream rejected input the grow reader accepts: %v", serr)
		}
		if x.Rows() != len(y) {
			t.Fatalf("rows %d != labels %d", x.Rows(), len(y))
		}
		// Every stored index must be in range and rows sorted.
		for i := 0; i < x.Rows(); i++ {
			ix, _ := x.SparseRow(i)
			for k, col := range ix {
				if int(col) >= x.Features() || col < 0 {
					t.Fatalf("row %d col %d out of range %d", i, col, x.Features())
				}
				if k > 0 && ix[k-1] >= col {
					t.Fatalf("row %d indices not strictly increasing", i)
				}
			}
		}
		requireSameParse(t, x, y, sx, sy)
	})
}

// FuzzWriteLIBSVM holds WriteLIBSVM to the fmt oracle's bytes on arbitrary
// float64 bit patterns, written as a dense and as a CSR matrix (which also
// stores its zeros), and reads each file back through ReadLIBSVMStream:
// every label but NaN, and every finite or infinite non-zero value, must come
// back bit for bit; a zero must not come back; a NaN must come back NaN. The
// first byte picks the row width; each following 8 bytes are one float, a
// label and then the row's values.
func FuzzWriteLIBSVM(f *testing.F) {
	le := func(v ...float64) []byte {
		b := []byte{byte(len(v) - 2)}
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(le(1, 0.5, 0, 2))
	f.Add(le(-1, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324))
	f.Add(le(1e21, math.MaxFloat64, 0.1+0.2, 1.0/3, 12345678901234567, 1e-7))
	f.Add(le(math.NaN(), 1))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		w := 1 + int(in[0]%8)
		var fl []float64
		for b := in[1:]; len(b) >= 8; b = b[8:] {
			fl = append(fl, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		m := len(fl) / (w + 1)
		y := make([]float64, m)
		dense := make([]float64, m*w)
		rowptr := make([]int32, m+1)
		idx := make([]int32, m*w)
		for i := 0; i < m; i++ {
			y[i] = fl[i*(w+1)]
			copy(dense[i*w:(i+1)*w], fl[i*(w+1)+1:(i+1)*(w+1)])
			for j := 0; j < w; j++ {
				idx[i*w+j] = int32(j)
			}
			rowptr[i+1] = int32((i + 1) * w)
		}
		for _, x := range []*la.Matrix{la.NewDense(m, w, dense), la.NewSparse(m, w, rowptr, idx, dense)} {
			requireWriteMatchesFmt(t, x, y)
			var buf bytes.Buffer
			if err := WriteLIBSVM(&buf, x, y); err != nil {
				t.Fatal(err)
			}
			bx, by, err := ReadLIBSVMStream(bytes.NewReader(buf.Bytes()), w)
			if err != nil {
				t.Fatalf("written file does not read back: %v\n%s", err, buf.Bytes())
			}
			if bx.Rows() != m || bx.Features() != w {
				t.Fatalf("read back %dx%d, wrote %dx%d", bx.Rows(), bx.Features(), m, w)
			}
			for i := 0; i < m; i++ {
				if !sameBits(by[i], y[i]) {
					t.Fatalf("label %d: wrote %v (%#x), read %v (%#x)", i, y[i], math.Float64bits(y[i]), by[i], math.Float64bits(by[i]))
				}
				for j, v := range dense[i*w : (i+1)*w] {
					got := bx.At(i, j)
					if v == 0 && got != 0 || v != 0 && !sameBits(got, v) {
						t.Fatalf("row %d col %d: wrote %v (%#x), read %v (%#x)", i, j, v, math.Float64bits(v), got, math.Float64bits(got))
					}
				}
			}
		}
	})
}

// sameBits reports whether a read-back float is the written one: the same
// bits, or NaN for NaN (the text keeps no payload).
func sameBits(got, want float64) bool {
	if want != want {
		return got != got
	}
	return math.Float64bits(got) == math.Float64bits(want)
}
