package la

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// ExpScaled and SqDistRows promise the scalar results bit for bit, on the
// four-lane path and the portable one alike, so every comparison here is
// same: math.Float64bits equality, NaN payloads aside.

// same reports whether got is want bit for bit, counting any two NaNs as the
// same: which operand's payload a NaN sum carries depends on how the compiler
// orders a commutative add, which Go leaves open — a fuzzing build of SqDist
// itself returns another payload than a plain one
// (testdata/fuzz/FuzzSqDistRows/2ea1eb461fbf213d).
func same(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// referenceSqDist is SqDist as written before it consumed its prefixes four
// at a time: the oracle for that rewrite.
func referenceSqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	for ; i < len(a); i++ {
		s += a[i] * a[i]
	}
	for i = n; i < len(b); i++ {
		s += b[i] * b[i]
	}
	return s
}

// specials are the arguments where exp leaves its ordinary branch or an
// accumulator overflows: NaN, ±Inf, huge, zero of both signs and denormals.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300,
	math.MaxFloat64, -math.MaxFloat64, 0, math.Copysign(0, -1), 5e-324, -5e-324}

// expArgs returns the arguments TestExpScaledMatchesExp feeds: random ones
// over and beyond the lanes' range, every ±64-ulp neighbourhood of
// (k+½)·ln2 (where round(t·log2e) flips) for k over the whole exponent range,
// the −708/709 cut-overs and the overflow/underflow edges, and specials.
func expArgs(rng *rand.Rand) []float64 {
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, -760+1520*rng.Float64(), -40*rng.Float64(), rng.NormFloat64())
	}
	for k := -1022; k <= 1023; k++ {
		t := (float64(k) + 0.5) * math.Ln2
		xs = append(xs, ulpsAround(t, 64)...)
	}
	for _, edge := range []float64{-708, 709, -708.5, 709.5, -745.1332191019412, 709.782712893384, -7.08e2 - 1e-9} {
		xs = append(xs, ulpsAround(edge, 8)...)
	}
	return append(xs, specials...)
}

// ulpsAround returns t and its n float64 neighbours on each side.
func ulpsAround(t float64, n int) []float64 {
	out := []float64{t}
	up, down := t, t
	for i := 0; i < n; i++ {
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		out = append(out, up, down)
	}
	return out
}

// checkExp runs ExpScaled on a copy of x and compares it with math.Exp.
func checkExp(t *testing.T, x []float64, s float64) {
	t.Helper()
	got := append([]float64(nil), x...)
	ExpScaled(got, s)
	for i, v := range x {
		if want := math.Exp(s * v); !same(got[i], want) {
			t.Fatalf("ExpScaled(s=%v)[%d] of %v (%#x): got %v (%#x), math.Exp %v (%#x)",
				s, i, v, math.Float64bits(v), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

func TestExpScaledMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := expArgs(rng)
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, s := range []float64{1, -1, -0.37, 3.5} {
		checkExp(t, xs, s)
	}
	// Every length 0–9 at every offset 0–3 of a backing array: the len%4
	// tails and vector loads off a 32-byte boundary, with specials planted so
	// that a group falls back mid-slice.
	buf := make([]float64, 16)
	for off := 0; off < 4; off++ {
		for n := 0; n <= 9; n++ {
			for trial := 0; trial < 50; trial++ {
				for i := range buf {
					buf[i] = -30 * rng.Float64()
					if rng.Intn(6) == 0 {
						buf[i] = specials[rng.Intn(len(specials))]
					}
				}
				checkExp(t, buf[off:off+n], -1)
			}
		}
	}
}

// unalignedDense returns an m×n dense matrix whose storage starts one float
// into its backing array, so that no row is 32-byte aligned.
func unalignedDense(rng *rand.Rand, m, n int) *Matrix {
	data := make([]float64, m*n+1)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return NewDense(m, n, data[1:])
}

func checkSqDistRows(t *testing.T, x []float64, m *Matrix, rows []int32) {
	t.Helper()
	n := len(rows)
	if rows == nil {
		n = m.Rows()
	}
	out := make([]float64, n+1)
	out[n] = 42
	SqDistRows(x, m, rows, out[:n])
	for k := 0; k < n; k++ {
		i := k
		if rows != nil {
			i = int(rows[k])
		}
		want := SqDist(x, m.DenseRow(i))
		if !same(out[k], want) {
			t.Fatalf("features=%d len(x)=%d row %d: SqDistRows %v, SqDist %v", m.Features(), len(x), i, out[k], want)
		}
	}
	if out[n] != 42 {
		t.Fatalf("SqDistRows wrote past its %d outputs", n)
	}
}

func TestSqDistRowsMatchesSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 31, 32, 33} {
		m := unalignedDense(rng, 40, n)
		if n > 0 {
			// Values that overflow an accumulator or poison it.
			m.DenseRow(3)[n-1] = 1e300
			m.DenseRow(5)[0] = math.NaN()
			m.DenseRow(7)[n/2] = math.Inf(-1)
		}
		backing := make([]float64, n+3)
		for off := 0; off < 3; off++ {
			x := backing[off : off+n]
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			rows := make([]int32, 100)
			for k := range rows {
				rows[k] = int32(rng.Intn(m.Rows()))
			}
			checkSqDistRows(t, x, m, rows)
			checkSqDistRows(t, x, m, nil)
			checkSqDistRows(t, x, m, []int32{})
			// A vector shorter or longer than the rows: SqDist's zero-padding.
			checkSqDistRows(t, append(x[:len(x):len(x)], 2.5), m, rows[:9])
			if n > 0 {
				checkSqDistRows(t, x[:n-1], m, rows[:9])
			}
		}
	}
}

// TestSqDistRowsIndexOutOfRange: a row outside the matrix panics, as
// DenseRow does, wherever it sits in a pair of the lanes.
func TestSqDistRowsIndexOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := unalignedDense(rng, 10, 8)
	x := m.DenseRow(0)
	for _, rows := range [][]int32{{10}, {0, 10}, {10, 0}, {1, 2, -1}, {3, 4, 5, 6, 1 << 30}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rows %v of a 10-row matrix: no panic", rows)
				}
			}()
			SqDistRows(x, m, rows, make([]float64, len(rows)))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil rows with 11 outputs on a 10-row matrix: no panic")
			}
		}()
		SqDistRows(x, m, nil, make([]float64, 11))
	}()
}

func TestSqDistMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		a, b := make([]float64, rng.Intn(20)), make([]float64, rng.Intn(20))
		for _, v := range [][]float64{a, b} {
			for i := range v {
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				if rng.Intn(50) == 0 {
					v[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		if got, want := SqDist(a, b), referenceSqDist(a, b); !same(got, want) {
			t.Fatalf("SqDist(%v, %v) = %v, reference %v", a, b, got, want)
		}
	}
}

// TestVectorKernelsActive fails where the CPU runs the four-lane kernels but
// the init probe turned them off: a Go release whose math.Exp no longer
// replays the sequence in vec_amd64.s would otherwise cost every Gaussian
// fill its vector speed without a word.
func TestVectorKernelsActive(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA with OS-saved YMM state: the portable loops run")
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		// math.Exp runs its non-FMA branch here, which the lanes do not replay.
		if vectorKernels {
			t.Fatal("math.Exp runs without FMA, yet the exp probe accepted the lanes")
		}
		return
	}
	if !vectorKernels {
		t.Fatal("AVX2+FMA present but the exp probe disagreed with math.Exp: " +
			"math.Exp no longer runs the FMA sequence vec_amd64.s replays; update the lanes to match it")
	}
	// The lanes take an in-range batch whole.
	x := []float64{-1, -2, -3, -4, -5, -6, -7, -8}
	if n := expScaledVec(x, 1); n != len(x) {
		t.Fatalf("expScaledVec replaced %d of %d in-range elements", n, len(x))
	}
}

// TestProbeRejectsNonFMAExp reruns the differential tests in a process whose
// math.Exp takes its non-FMA branch: the probe must turn the lanes off there,
// and ExpScaled must still equal that math.Exp bit for bit.
func TestProbeRejectsNonFMAExp(t *testing.T) {
	if !cpuHasAVX2FMA() || os.Getenv("GODEBUG") != "" {
		t.Skip("needs AVX2+FMA and a process without GODEBUG settings")
	}
	cmd := exec.Command(os.Args[0], "-test.count=1",
		"-test.run=^(TestVectorKernelsActive|TestExpScaledMatchesExp|TestSqDistRowsMatchesSqDist)$")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// float64s reads raw as little-endian float64s, dropping a partial tail.
func float64s(raw []byte) []float64 {
	x := make([]float64, len(raw)/8)
	for i := range x {
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return x
}

func bytesOf(x ...float64) []byte {
	raw := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return raw
}

// FuzzExpScaled holds ExpScaled to math.Exp bitwise on arbitrary bit
// patterns and scales.
func FuzzExpScaled(f *testing.F) {
	f.Add(bytesOf(-1, -2.5, -30, 0, -700, -708, 709, -709), -1.0)
	f.Add(bytesOf(specials...), 1.0)
	f.Add(bytesOf(ulpsAround(10.5*math.Ln2, 4)...), 1.0)
	f.Add(bytesOf(1, 2, 3, 4, 5), -0.5)
	f.Add([]byte{}, 2.0)
	f.Fuzz(func(t *testing.T, raw []byte, s float64) {
		checkExp(t, float64s(raw), s)
	})
}

// FuzzSqDistRows holds SqDistRows to SqDist bitwise: raw fills a matrix of
// features%12 columns, x is its first row shifted by offset%3 floats, and
// pick lists the rows.
func FuzzSqDistRows(f *testing.F) {
	f.Add(bytesOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), uint8(4), uint8(0), []byte{0, 1, 2, 2})
	f.Add(bytesOf(specials...), uint8(5), uint8(1), []byte{1, 0})
	f.Add(bytesOf(0.5, -1, 1e300, 3, 4, 5, 6, 7, 8), uint8(9), uint8(2), []byte{0})
	f.Add([]byte{}, uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, raw []byte, features, offset uint8, pick []byte) {
		vals := float64s(raw)
		n, off := int(features%12), int(offset%3)
		if len(vals) < n+off || n == 0 {
			return
		}
		x := vals[off : off+n]
		rowsN := (len(vals) - off) / n
		m := NewDense(rowsN, n, vals[off:off+rowsN*n])
		rows := make([]int32, len(pick))
		for k, b := range pick {
			rows[k] = int32(int(b) % rowsN)
		}
		checkSqDistRows(t, x, m, rows)
		checkSqDistRows(t, x, m, nil)
	})
}

// BenchmarkExpScaled prices the Gaussian finish on a casvm-dense rank's row
// length: ExpScaled against the math.Exp loop it replaces.
func BenchmarkExpScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	src := make([]float64, 450)
	for i := range src {
		src[i] = 40 * rng.Float64()
	}
	buf := make([]float64, len(src))
	b.Run("lanes", func(b *testing.B) {
		b.SetBytes(int64(8 * len(src)))
		for i := 0; i < b.N; i++ {
			copy(buf, src)
			ExpScaled(buf, -0.5)
		}
	})
	b.Run("mathexp", func(b *testing.B) {
		b.SetBytes(int64(8 * len(src)))
		for i := 0; i < b.N; i++ {
			for k, v := range src {
				buf[k] = math.Exp(-0.5 * v)
			}
		}
	})
}

// BenchmarkSqDistRows prices one dense RowCache fill's distances — a row
// against every row of a 450×32 block — against the SqDist loop.
func BenchmarkSqDistRows(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := unalignedDense(rng, 450, 32)
	rows := make([]int32, m.Rows())
	for i := range rows {
		rows[i] = int32(i)
	}
	x := m.DenseRow(7)
	out := make([]float64, len(rows))
	b.Run("lanes", func(b *testing.B) {
		b.SetBytes(int64(8 * len(rows) * 32))
		for i := 0; i < b.N; i++ {
			SqDistRows(x, m, rows, out)
		}
	})
	b.Run("sqdist", func(b *testing.B) {
		b.SetBytes(int64(8 * len(rows) * 32))
		for i := 0; i < b.N; i++ {
			for k, r := range rows {
				out[k] = SqDist(x, m.DenseRow(int(r)))
			}
		}
	})
}
