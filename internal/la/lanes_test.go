package la

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// ExpScaled, dotList (MulTile's one-column tiles) and UpdateScan promise the
// scalar results bit for bit,
// on the four-lane path and the portable one alike, so every comparison here
// is same: math.Float64bits equality, NaN payloads aside.

// same reports whether got is want bit for bit, counting any two NaNs as the
// same: which operand's payload a NaN sum carries depends on how the compiler
// orders a commutative add, which Go leaves open — a fuzzing build of the
// scalar loops returns another payload than a plain one
// (testdata/fuzz/FuzzDotList/2ea1eb461fbf213d).
func same(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// referenceSqDist is the one distance recipe written out from scratch: the
// two norms by Dot, their sum, less twice the dot, clamped at zero.
func referenceSqDist(a, b []float64) float64 {
	d := Dot(a, a) + Dot(b, b) - 2*Dot(a, b)
	if d < 0 {
		d = 0
	}
	return d
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

// checkDotList holds MulTile's and SqDistTile's one-column path — the b row
// col against the listed rows of a, into contiguous outputs — to Dot and to
// SqDistOf over Dot, bit for bit, and checks that it writes nothing past its
// outputs.
func checkDotList(t *testing.T, a *Matrix, rows []int, b *Matrix, col int) {
	t.Helper()
	n := len(rows)
	x := b.DenseRow(col)
	out := make([]float64, n+1)
	out[n] = 42
	MulTile(a, rows, b, col, col+1, out[:n], 1)
	for k, i := range rows {
		want := Dot(x, a.DenseRow(i))
		if !same(out[k], want) {
			t.Fatalf("features=%d len(x)=%d row %d: MulTile %v, Dot %v", a.Features(), len(x), i, out[k], want)
		}
	}
	if out[n] != 42 {
		t.Fatalf("MulTile wrote past its %d outputs", n)
	}
	// The distance form: the same dots finished in the lanes.
	SqDistTile(a, rows, b, col, col+1, out[:n], 1)
	for k, i := range rows {
		want := SqDistOf(b.SqNormRow(col), a.SqNormRow(i), Dot(x, a.DenseRow(i)))
		if !same(out[k], want) {
			t.Fatalf("features=%d len(x)=%d row %d: SqDistTile %v, SqDistOf %v", a.Features(), len(x), i, out[k], want)
		}
	}
	if out[n] != 42 {
		t.Fatalf("SqDistTile wrote past its %d outputs", n)
	}
}

// oneRow is x as a one-row dense matrix: the b side of a one-column tile.
func oneRow(x []float64) *Matrix { return NewDense(1, len(x), x) }

// TestDotListMatchesDot: the one-column MulTile against Dot and SqDistTile
// against SqDistOf over Dot, at every row width 0–67 (each len%4 tail, lanes
// or not), listed rows in every count mod 4 (each leftover-row count after the
// quads), all rows, no rows, misaligned storage, overflow and poison values
// (NaN and ±Inf distances, a clamp at zero for a row against itself), a
// column of a itself that the list hits, and a b row shorter or longer than
// the rows of a.
func TestDotListMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 67; n++ {
		m := unalignedDense(rng, 41, n)
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
			rows := make([]int, 103)
			for k := range rows {
				rows[k] = rng.Intn(m.Rows())
			}
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 103} {
				checkDotList(t, m, rows[:k], oneRow(x), 0)
			}
			checkDotList(t, m, allRows(m.Rows()), oneRow(x), 0)
			checkDotList(t, m, []int{}, oneRow(x), 0)
			// A column of m itself, which the list hits.
			col := rows[0]
			checkDotList(t, m, append([]int{col, col}, rows[:9]...), m, col)
			// A b row shorter or longer than the rows: Dot's common prefix.
			checkDotList(t, m, rows[:9], oneRow(append(x[:len(x):len(x)], 2.5)), 0)
			if n > 0 {
				checkDotList(t, m, rows[:9], oneRow(x[:n-1]), 0)
			}
		}
	}
}

func allRows(m int) []int {
	rows := make([]int, m)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// TestSqDistListClampsAtZero: a pair whose identity rounds below zero reads
// +0 on SqDistTile's one-column path, which finishes in the lanes: in their
// quads and single rows alike, as SqDistOf clamps it.
func TestSqDistListClampsAtZero(t *testing.T) {
	p, q := 1.000000008468023, 1.000000016969414
	m := NewDense(2, 1, []float64{p, q})
	out := make([]float64, 7)
	SqDistTile(m, []int{1, 0, 1, 1, 0, 1, 1}, NewDense(1, 1, []float64{p}), 0, 1, out, 1)
	for k, v := range out {
		if math.Float64bits(v) != 0 {
			t.Fatalf("distance %d: %v, want +0", k, v)
		}
	}
}

// TestDotListIndexOutOfRange: a row outside the matrix panics, as DenseRow
// does, wherever it sits in a quad of the lanes or after one; the lanes stop
// at it having set every output before it.
func TestDotListIndexOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := unalignedDense(rng, 10, 8)
	x := m.DenseRow(0)
	for _, rows := range [][]int{{10}, {0, 10}, {10, 0}, {1, 2, -1}, {3, 4, 5, 6, 1 << 30},
		{1, 2, 3, 10, 4}, {1, 2, 3, 4, 5, 6, 7, 8, 9, -5}, {1, 2, 3, 1 << 40}} {
		for _, tile := range []func(a *Matrix, rows []int, b *Matrix, clo, chi int, dst []float64, ld int){MulTile, SqDistTile} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("rows %v of a 10-row matrix: no panic", rows)
					}
				}()
				tile(m, rows, m, 0, 1, make([]float64, len(rows)), 1)
			}()
		}
		if !vectorKernels {
			continue
		}
		out := make([]float64, len(rows))
		bad := 0
		for bad < len(rows) && rows[bad] >= 0 && rows[bad] < 10 {
			bad++
		}
		if k := dotRowsVec(x, m.dense, m.Rows(), rows, out, nil, 0); k != bad {
			t.Errorf("rows %v: the lanes set %d outputs, want the %d before the bad index", rows, k, bad)
		}
		m.EnsureNorms()
		if k := dotRowsVec(x, m.dense, m.Rows(), rows, make([]float64, len(rows)), m.sqnorm, 1); k != bad {
			t.Errorf("rows %v with norms: the lanes set %d outputs, want the %d before the bad index", rows, k, bad)
		}
		for k := range bad {
			if want := Dot(x, m.DenseRow(rows[k])); !same(out[k], want) {
				t.Errorf("rows %v: output %d is %v before the bad index, Dot %v", rows, k, out[k], want)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil rows with 11 outputs on a 10-row matrix: no panic")
			}
		}()
		dotList(x, m, 0, nil, make([]float64, 11), nil, 0)
	}()
}

// TestSqDistMatchesReference: SqDistTile's one-column path and its general
// one give the recipe written out from scratch bit for bit, at every length
// and with specials.
func TestSqDistMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(20)
		a, b := make([]float64, n), make([]float64, n)
		for _, v := range [][]float64{a, b} {
			for i := range v {
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				if rng.Intn(50) == 0 {
					v[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		want := referenceSqDist(a, b)
		if got := sqDist(a, b); !same(got, want) {
			t.Fatalf("one-column SqDistTile(%v, %v) = %v, reference %v", a, b, got, want)
		}
		var tile [2]float64 // ld = 2: not the one-column path
		SqDistTile(NewDense(1, n, a), []int{0}, NewDense(1, n, b), 0, 1, tile[:], 2)
		if !same(tile[0], want) {
			t.Fatalf("SqDistTile(%v, %v) = %v, reference %v", a, b, tile[0], want)
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
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.avx2=off") {
		if vectorKernels {
			t.Fatal("GODEBUG turned AVX2 off, yet the lanes run")
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
	// And two whole base64 blocks of finite values.
	q := make([]float64, 6)
	if n := DecodeBase64F64(q, b64Values(1, -2, 3.5, 0, 1e300, -5e-324)); n != len(q) || q[4] != 1e300 {
		t.Fatalf("DecodeBase64F64 decoded %d of %d finite values: %v", n, len(q), q)
	}
}

// TestDot4TakesLanes: with the gate on, Dot4 and MulTile's dense×dense
// panels are dot4PanelVec's results, and those are Dot's. Off the gate it
// checks the portable loop the same way (make lanes-off runs it there).
func TestDot4TakesLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 67; n++ {
		a := unalignedDense(rng, 4, n)
		b := unalignedDense(rng, 5, n)
		rows := []int{0, 1, 2, 3}
		tile := make([]float64, 4*5)
		MulTile(a, rows, b, 0, 5, tile, 5)
		lanes := make([]float64, 4*5)
		if vectorKernels {
			dot4PanelVec(a.DenseRow(0), a.DenseRow(1), a.DenseRow(2), a.DenseRow(3), b.dense, 5, lanes, 5, nil, nil)
		} else {
			copy(lanes, tile)
		}
		var d4 [4]float64
		for c := 0; c < 5; c++ {
			Dot4(b.DenseRow(c), a.DenseRow(0), a.DenseRow(1), a.DenseRow(2), a.DenseRow(3), d4[:])
			for k := range rows {
				want := Dot(a.DenseRow(k), b.DenseRow(c))
				if got := tile[k*5+c]; math.Float64bits(got) != math.Float64bits(lanes[k*5+c]) || got != want || d4[k] != want {
					t.Fatalf("n=%d row %d col %d: MulTile %v, Dot4 %v, lanes %v, Dot %v (lanes on: %v)",
						n, k, c, got, d4[k], lanes[k*5+c], want, vectorKernels)
				}
			}
		}
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
		"-test.run=^(TestVectorKernelsActive|TestExpScaledMatchesExp|TestDotListMatchesDot|TestUpdateScan.*)$")
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

// FuzzDotList holds the one-column MulTile and SqDistTile to Dot bitwise:
// raw fills a matrix of features%12 columns, x, the one b row, is its first
// row shifted by offset%3 floats, and pick lists the rows.
func FuzzDotList(f *testing.F) {
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
		rows := make([]int, len(pick))
		for k, b := range pick {
			rows[k] = int(b) % rowsN
		}
		checkDotList(t, m, rows, oneRow(x), 0)
		checkDotList(t, m, allRows(rowsN), oneRow(x), 0)
	})
}

// scanCase is one UpdateScan input. UpdateScan writes f, so every check runs
// on copies.
type scanCase struct {
	f, rh, rl, outHigh, outLow []float64
	ch, cl                     float64
}

// checkUpdateScan runs UpdateScan and the portable loop on copies of c and
// demands the same f and the same Extremes bit for bit (NaNs aside).
func checkUpdateScan(t *testing.T, name string, c scanCase) {
	t.Helper()
	got, want := append([]float64(nil), c.f...), append([]float64(nil), c.f...)
	ge := UpdateScan(got, c.rh, c.rl, c.outHigh, c.outLow, c.ch, c.cl)
	we := updateScanLoop(want, c.rh, c.rl, c.outHigh, c.outLow, c.ch, c.cl, 0, NoExtremes())
	for k := range want {
		if !same(got[k], want[k]) {
			t.Fatalf("%s: f[%d] = %v (%#x), loop %v (%#x)", name, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
	if ge.IHigh != we.IHigh || ge.ILow != we.ILow || !same(ge.BHigh, we.BHigh) || !same(ge.BLow, we.BLow) {
		t.Fatalf("%s: extremes %+v, loop %+v (f %v, outHigh %v, outLow %v)", name, ge, we, want, c.outHigh, c.outLow)
	}
}

// memberships returns n set entries, 0 for a member and +Inf otherwise: no
// member, one, all, or each a member with probability p.
func memberships(rng *rand.Rand, n int, p float64) []float64 {
	out := make([]float64, n)
	mode, lone := rng.Intn(6), rng.Intn(n+1)
	for k := range out {
		in := rng.Float64() < p
		switch mode {
		case 0:
			in = false
		case 1:
			in = k == lone
		case 2:
			in = true
		}
		if !in {
			out[k] = math.Inf(1)
		}
	}
	return out
}

// tieValues is a small alphabet, so that equal extremes, ±0 among them, land
// on every lane and in every tail.
var tieValues = []float64{-1, -1, 0, math.Copysign(0, -1), 1, 1, 2, math.NaN(), math.Inf(1), math.Inf(-1)}

// planted returns a case whose update leaves f as given: (f + 1·(−0)) +
// 1·(−0) is f for every f, −0 and NaN included.
func planted(f, outHigh, outLow []float64) scanCase {
	negZero := make([]float64, len(f))
	for k := range negZero {
		negZero[k] = math.Copysign(0, -1)
	}
	return scanCase{f: f, rh: negZero, rl: negZero, outHigh: outHigh, outLow: outLow, ch: 1, cl: 1}
}

// TestUpdateScanMatchesLoop holds UpdateScan to its portable loop: lengths
// 0–70 at offsets 0–3 of a backing array (zero to four whole blocks of
// scanBlock, a last block of every length, every len%4 tail, unaligned
// loads), equal extremes — ±0 among them — on every lane, in every block and
// in the tails,
// empty and one-member sets, NaN and ±Inf in f, in the rows and in the
// coefficients, and unaligned sub-slices of a long row.
func TestUpdateScanMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coefs := []float64{0.75, -1.5, 0, math.Copysign(0, -1), 1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	backing := func(n int, gen func() float64) []float64 {
		b := make([]float64, n)
		for k := range b {
			b[k] = gen()
		}
		return b
	}
	for off := 0; off < 4; off++ {
		for n := 0; n <= 70; n++ {
			for trial := 0; trial < 120; trial++ {
				tie := func() float64 { return tieValues[rng.Intn(len(tieValues))] }
				c := planted(backing(n+4, tie)[off:off+n],
					memberships(rng, n+4, 0.7)[off:off+n], memberships(rng, n+4, 0.7)[off:off+n])
				checkUpdateScan(t, fmt.Sprintf("ties off=%d n=%d", off, n), c)

				val := func() float64 {
					if rng.Intn(8) == 0 {
						return specials[rng.Intn(len(specials))]
					}
					return rng.NormFloat64()
				}
				c = scanCase{
					f: backing(n+4, val)[off : off+n], rh: backing(n+4, val)[off : off+n], rl: backing(n+4, val)[off : off+n],
					outHigh: memberships(rng, n+4, 0.6)[off : off+n], outLow: memberships(rng, n+4, 0.6)[off : off+n],
					ch: rng.NormFloat64(), cl: rng.NormFloat64(),
				}
				if rng.Intn(4) == 0 {
					c.ch = coefs[rng.Intn(len(coefs))]
				}
				if rng.Intn(4) == 0 {
					c.cl = coefs[rng.Intn(len(coefs))]
				}
				checkUpdateScan(t, fmt.Sprintf("random off=%d n=%d", off, n), c)
			}
		}
	}

	// Equal minima and maxima on every pair of lanes and between a lane and the
	// tail: the lower index must win wherever the higher one sits.
	for n := 2; n <= 19; n++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				f, in := make([]float64, n), make([]float64, n)
				for k := range f {
					f[k] = float64(k%3) + 0.5
				}
				f[i], f[j] = math.Copysign(0, -1), 0 // equal as extremes, not as bits
				checkUpdateScan(t, fmt.Sprintf("min tie %d,%d of %d", i, j, n), planted(f, in, in))
				f[i], f[j] = 9, 9
				checkUpdateScan(t, fmt.Sprintf("max tie %d,%d of %d", i, j, n), planted(f, in, in))
			}
		}
	}

	// Sub-slices f[lo:hi] of a long row with lo = c·⌈n/nc⌉: odd offsets,
	// unaligned loads, a short last slice.
	const n = 4097
	c := scanCase{
		f: make([]float64, n), rh: make([]float64, n), rl: make([]float64, n),
		outHigh: memberships(rng, n, 0.5), outLow: memberships(rng, n, 0.5), ch: 0.3, cl: -0.7,
	}
	for k := 0; k < n; k++ {
		c.f[k], c.rh[k], c.rl[k] = float64(rng.Intn(5)), rng.NormFloat64(), rng.NormFloat64()
	}
	for nc := 2; nc <= 4; nc++ {
		size := (n + nc - 1) / nc
		for lo := 0; lo < n; lo += size {
			hi := min(lo+size, n)
			checkUpdateScan(t, fmt.Sprintf("chunk [%d,%d)", lo, hi), scanCase{
				f: c.f[lo:hi], rh: c.rh[lo:hi], rl: c.rl[lo:hi], outHigh: c.outHigh[lo:hi], outLow: c.outLow[lo:hi], ch: c.ch, cl: c.cl,
			})
		}
	}
}

// TestUpdateScanBlocks plants the cases where the lanes' block records
// decide UpdateScan's answer, each at offsets 0–3 of a backing array, with
// every element a member and with every third one out of both sets, as the
// minimum (on f) and as the maximum (on −f): the extreme at the first and at
// the last element of each block, in the last block and in the tail; a lane
// whose best improves in a later block while the extreme stays in an earlier
// one; equal extremes, ±0 among them, in different blocks and lanes, in one
// lane and in the tail; NaNs in the extreme's lane and block; strictly
// decreasing and increasing f, where every block moves a best; and all-NaN
// f, NaN updates, ±Inf f and empty sets, where nothing wins.
func TestUpdateScanBlocks(t *testing.T) {
	const n = 70 // four whole blocks, a last block of one quad, a tail of two
	negZero := math.Copysign(0, -1)
	// base is above every planted minimum: values in [1, 1.625].
	base := func() []float64 {
		f := make([]float64, n)
		for k := range f {
			f[k] = 1 + float64(k*7%11)/16
		}
		return f
	}
	fill := func(v float64) []float64 {
		x := make([]float64, n)
		for k := range x {
			x[k] = v
		}
		return x
	}
	everyThirdOut := fill(0)
	for k := 0; k < n; k += 3 {
		everyThirdOut[k] = math.Inf(1)
	}
	check := func(name string, f, rh, outHigh, outLow []float64, ch float64) {
		t.Helper()
		for off := 0; off < 4; off++ {
			at := func(x []float64) []float64 {
				b := make([]float64, n+off)
				copy(b[off:], x)
				return b[off:]
			}
			checkUpdateScan(t, fmt.Sprintf("%s off=%d", name, off), scanCase{
				f: at(f), rh: at(rh), rl: at(fill(negZero)), outHigh: at(outHigh), outLow: at(outLow), ch: ch, cl: 1,
			})
		}
	}
	// scenario checks f with the planted values as the minimum and, negated,
	// as the maximum, under both memberships; (f + 1·(−0)) + 1·(−0) is f.
	scenario := func(name string, planted map[int]float64) {
		t.Helper()
		f := base()
		for k, v := range planted {
			f[k] = v
		}
		neg := make([]float64, n)
		for k, v := range f {
			neg[k] = -v
		}
		for _, in := range [][]float64{fill(0), everyThirdOut} {
			check(name+" min", f, fill(negZero), in, in, 1)
			check(name+" max", neg, fill(negZero), in, in, 1)
		}
	}

	for b := 0; b < n; b += scanBlock {
		for _, k := range []int{b, min(b+scanBlock, n) - 1} {
			scenario(fmt.Sprintf("extreme at %d", k), map[int]float64{k: -3})
		}
	}
	for name, planted := range map[string]map[int]float64{
		"lane improves later":           {1: -10, 34: -5, 49: -7},
		"other lane improves later":     {5: -10, 20: -9, 36: -9.5, 68: -9.9},
		"tie later in the same lane":    {1: -10, 49: -10},
		"tie in a later block":          {50: -10, 3: -10},
		"tie, lower lane later":         {17: -10, 3: -5, 19: -10, 35: -10},
		"tie across lanes of one block": {18: -10, 33: -10, 34: -10, 2: -3},
		"tie in the last block":         {66: -10, 2: -10},
		"extreme in the last block":     {66: -10, 50: -9},
		"tie in the tail":               {69: -10, 2: -10},
		"extreme in the tail":           {68: -10, 65: -9},
		"+0 then -0":                    {7: 0, 20: negZero},
		"-0 then +0":                    {7: negZero, 20: 0},
		"zeros, later block first lane": {22: negZero, 9: 0},
		"zeros in one block":            {33: 0, 34: negZero, 36: 0},
		"zeros in one lane":             {32: negZero, 48: 0, 64: negZero},
		"zero in the last block":        {67: negZero, 4: 0},
		"zero in the tail":              {69: negZero, 5: 0},
		"NaN behind it in its lane":     {17: -10, 25: math.NaN(), 29: math.NaN()},
	} {
		scenario(name, planted)
	}

	down, up := make([]float64, n), make([]float64, n)
	for k := range down {
		down[k], up[k] = float64(n-k), float64(k)
	}
	for _, in := range [][]float64{fill(0), everyThirdOut} {
		check("decreasing", down, fill(negZero), in, in, 1)
		check("increasing", up, fill(negZero), in, in, 1)
	}

	nan, none := fill(math.NaN()), fill(math.Inf(1))
	check("all-NaN f", nan, fill(negZero), fill(0), fill(0), 1)
	check("NaN update", base(), fill(math.NaN()), fill(0), fill(0), 1)
	check("empty sets", base(), fill(negZero), none, none, 1)
	check("+Inf f", fill(math.Inf(1)), fill(negZero), fill(0), none, 1)
	check("-Inf f", fill(math.Inf(-1)), fill(negZero), none, fill(0), 1)
	check("-Inf f, no members", fill(math.Inf(-1)), fill(negZero), none, none, 1)
}

// FuzzUpdateScan holds UpdateScan to its portable loop on arbitrary bit
// patterns: raw fills f, rh and rl by thirds, offset%4 shifts all three, and
// bit 0 (1) of member[k] takes k out of I_high (I_low).
func FuzzUpdateScan(f *testing.F) {
	f.Add(bytesOf(-1, -1, 0, 2, 2, -1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), []byte{0, 0, 0, 0, 0, 0}, 1.0, 1.0, uint8(0))
	f.Add(bytesOf(specials...), []byte{3, 1, 2, 0}, -0.5, 2.0, uint8(1))
	f.Add(bytesOf(0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 0, 0, 0, 0, 0, 0, 0, 0),
		[]byte{}, math.Copysign(0, -1), 0.0, uint8(2))
	f.Add(bytesOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15), []byte{3, 3, 3, 0, 3}, math.Inf(1), math.NaN(), uint8(3))
	f.Add([]byte{}, []byte{}, 0.0, 0.0, uint8(0))
	// Whole blocks: f decreasing over 50 elements, so every block moves a
	// best; equal values and ±0 over 64, the equal pair in one lane two
	// blocks apart; and 48 with a NaN in one row.
	var down, rows []float64
	for k := range 50 {
		down = append(down, float64(50-k))
	}
	for range 2 * 50 {
		rows = append(rows, math.Copysign(0, -1))
	}
	f.Add(bytesOf(append(down, rows...)...), []byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1}, 1.0, 1.0, uint8(0))
	ties := make([]float64, 3*64)
	for k := range 64 {
		ties[k] = tieValues[k*7%len(tieValues)]
	}
	ties[5], ties[37], ties[20] = -3, -3, math.Copysign(0, -1)
	f.Add(bytesOf(ties...), []byte{1, 0, 2, 0, 3, 0, 0, 0, 1, 1, 2, 2}, 0.5, -0.25, uint8(3))
	poisoned := make([]float64, 3*48)
	for k := range 48 {
		poisoned[k], poisoned[48+k] = float64(k%9)-4, float64(k%5)
	}
	poisoned[96+33] = math.NaN()
	f.Add(bytesOf(poisoned...), []byte{}, -1.0, 2.0, uint8(1))
	f.Fuzz(func(t *testing.T, raw, member []byte, ch, cl float64, offset uint8) {
		vals := float64s(raw)
		n := len(vals) / 3
		off := min(int(offset%4), n)
		in := func(k int, bit byte) float64 {
			if k < len(member) && member[k]&bit != 0 {
				return math.Inf(1)
			}
			return 0
		}
		c := scanCase{f: vals[off:n], rh: vals[n+off : 2*n], rl: vals[2*n+off : 3*n], ch: ch, cl: cl}
		for k := range c.f {
			c.outHigh = append(c.outHigh, in(k, 1))
			c.outLow = append(c.outLow, in(k, 2))
		}
		checkUpdateScan(t, "fuzz", c)
	})
}

// checkDot4 holds Dot4, its portable loop and a two-column panel (columns x
// and y against the rows b[k]) to Dot bitwise, NaNs aside, and the panel
// finished as distances to SqDistOf over those dots.
func checkDot4(t *testing.T, x, y []float64, b [4][]float64) {
	t.Helper()
	var got, loop [4]float64
	Dot4(x, b[0], b[1], b[2], b[3], got[:])
	dot4Loop(x, b[0], b[1], b[2], b[3], loop[:])
	// Two columns at row stride 3, and a guard after the last output.
	const ld = 3
	panel := make([]float64, 3*ld+2+1)
	panel[3*ld+2] = 42
	cols := append(append([]float64(nil), x...), y...)
	panel4(b[0], b[1], b[2], b[3], cols, 2, panel[:3*ld+2], ld, nil, nil)
	// The same panel finished as distances, against norms cut from the
	// case's own values, so clamps, NaN, ±Inf and −0 all arise.
	at := func(v []float64, i int) float64 {
		if i < len(v) {
			return v[i]
		}
		return 0
	}
	xn := [4]float64{at(b[0], 0), at(b[1], 1), at(b[2], 0), at(b[3], 1)}
	bn := []float64{at(x, 0), at(y, 1)}
	dist := make([]float64, 3*ld+2+1)
	dist[3*ld+2] = 42
	panel4(b[0], b[1], b[2], b[3], cols, 2, dist[:3*ld+2], ld, xn[:], bn)
	for k := range b {
		for c, col := range [][]float64{x, y} {
			if want := SqDistOf(xn[k], bn[c], Dot(b[k], col)); !same(dist[k*ld+c], want) {
				t.Fatalf("n=%d output %d col %d: distance panel %v (%#x), SqDistOf %v (%#x)", len(x), k, c,
					dist[k*ld+c], math.Float64bits(dist[k*ld+c]), want, math.Float64bits(want))
			}
		}
	}
	if dist[3*ld+2] != 42 {
		t.Fatalf("n=%d: the distance panel wrote past its last output", len(x))
	}
	for k := range b {
		want := Dot(b[k], x)
		if !same(got[k], want) || !same(loop[k], want) {
			t.Fatalf("n=%d output %d: Dot4 %v (%#x), loop %v (%#x), Dot %v (%#x)", len(x), k,
				got[k], math.Float64bits(got[k]), loop[k], math.Float64bits(loop[k]), want, math.Float64bits(want))
		}
		if wy := Dot(b[k], y); !same(panel[k*ld], want) || !same(panel[k*ld+1], wy) {
			t.Fatalf("n=%d output %d: panel %v, %v; Dot %v, %v", len(x), k, panel[k*ld], panel[k*ld+1], want, wy)
		}
	}
	if panel[3*ld+2] != 42 {
		t.Fatalf("n=%d: the panel wrote past its last output", len(x))
	}
}

// dot4Specials are the values FuzzDot4 and TestDot4SpecialsMatchLoop plant:
// signed zeros, subnormals, the smallest normal, ±1e308 (whose products and
// sums overflow), ±Inf and NaN.
var dot4Specials = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e308, -1e308, math.Inf(1), math.Inf(-1), math.NaN()}

// dot4Case cuts x, y and b[0..3], n floats each, from vals shifted by off,
// cycling through vals (all zeros when it is empty).
func dot4Case(vals []float64, n, off int) (x, y []float64, b [4][]float64) {
	buf := make([]float64, off+6*n)
	if len(vals) > 0 {
		for i := range buf {
			buf[i] = vals[i%len(vals)]
		}
	}
	v := buf[off:]
	x, y = v[:n:n], v[n:2*n:2*n]
	for k := range b {
		b[k] = v[(2+k)*n : (3+k)*n : (3+k)*n]
	}
	return x, y, b
}

// TestDot4SpecialsMatchLoop runs every length 0–67 at offsets 0–3 of a
// backing array with specials planted at random.
func TestDot4SpecialsMatchLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 20; trial++ {
				vals := make([]float64, 6*n+1)
				for i := range vals {
					vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
					if rng.Intn(12) == 0 {
						vals[i] = dot4Specials[rng.Intn(len(dot4Specials))]
					}
				}
				x, y, b := dot4Case(vals, n, off)
				checkDot4(t, x, y, b)
			}
		}
	}
}

// FuzzDot4 holds Dot4 and the dense panels to the portable loop and to Dot,
// and the distance panels to SqDistOf, bitwise on arbitrary bit patterns: raw, cycled, fills five vectors of
// length%68 floats and one more, offset%4 floats into a backing array.
func FuzzDot4(f *testing.F) {
	f.Add(bytesOf(1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(9), uint8(0))
	f.Add(bytesOf(dot4Specials...), uint8(67), uint8(1))
	f.Add(bytesOf(1e308, 1e308, -1e308, 1, math.Copysign(0, -1), 5e-324, 3), uint8(7), uint8(2))
	f.Add(bytesOf(0.5, -0.25), uint8(3), uint8(3))
	f.Add([]byte{}, uint8(0), uint8(0))
	// Distance panels: norms far below twice the dot (every output clamps),
	// signed zeros throughout (−0 norms, −0 sums), and a NaN norm.
	f.Add(bytesOf(1, 2, 3, 4, 5, 6), uint8(5), uint8(0))
	f.Add(bytesOf(math.Copysign(0, -1), 0, math.Copysign(0, -1)), uint8(4), uint8(1))
	f.Add(bytesOf(math.NaN(), 1, 2, 3e-320, math.Inf(-1), 7), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, length, offset uint8) {
		x, y, b := dot4Case(float64s(raw), int(length%68), int(offset%4))
		checkDot4(t, x, y, b)
	})
}

// BenchmarkUpdateScan prices one SMO iteration tail on a casvm-dense rank's
// m = 450, with membership as a solve under way leaves it: UpdateScan
// against its portable loop, and UpdateScan on strictly decreasing f with
// every element a member (descending), where every block moves every lane's
// best on both sides. Zero coefficients keep f fixed across iterations while
// costing the same arithmetic.
func BenchmarkUpdateScan(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n = 450
	c := scanCase{f: make([]float64, n), rh: make([]float64, n), rl: make([]float64, n),
		outHigh: memberships(rng, n, 0.6), outLow: memberships(rng, n, 0.6)}
	for k := range c.f {
		c.f[k], c.rh[k], c.rl[k] = rng.NormFloat64(), rng.Float64(), rng.Float64()
	}
	b.Run("lanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UpdateScan(c.f, c.rh, c.rl, c.outHigh, c.outLow, 0, 0)
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			updateScanLoop(c.f, c.rh, c.rl, c.outHigh, c.outLow, 0, 0, 0, NoExtremes())
		}
	})
	d := scanCase{f: make([]float64, n), rh: c.rh, rl: c.rl, outHigh: make([]float64, n), outLow: make([]float64, n)}
	for k := range d.f {
		d.f[k] = float64(n - k)
	}
	b.Run("descending", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UpdateScan(d.f, d.rh, d.rl, d.outHigh, d.outLow, 0, 0)
		}
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

// BenchmarkDotList prices one dense RowCache fill's inner products — the
// one-column MulTile of every row of a 450×32 block against one of its rows —
// against the Dot loop.
func BenchmarkDotList(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := unalignedDense(rng, 450, 32)
	rows := allRows(m.Rows())
	x := m.DenseRow(7)
	out := make([]float64, len(rows))
	b.Run("lanes", func(b *testing.B) {
		b.SetBytes(int64(8 * len(rows) * 32))
		for i := 0; i < b.N; i++ {
			MulTile(m, rows, m, 7, 8, out, 1)
		}
	})
	b.Run("dot", func(b *testing.B) {
		b.SetBytes(int64(8 * len(rows) * 32))
		for i := 0; i < b.N; i++ {
			for k, r := range rows {
				out[k] = Dot(x, m.DenseRow(r))
			}
		}
	})
}
