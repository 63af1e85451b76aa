package la

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The array codec replaces per-element loops on every wire array, so each
// word it writes or reads is held to those loops bit for bit: the
// references below are the loops it replaced.

func refPutF64s(dst []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

func refPutF32s(dst []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(x)))
	}
}

// refAddF64s is the allreduce combine's loop before the codec, verbatim.
func refAddF64s(acc, in []byte) {
	for off := 0; off < len(acc); off += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(acc[off:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(in[off:]))
		binary.LittleEndian.PutUint64(acc[off:], math.Float64bits(a+b))
	}
}

func refPutI32s(dst []byte, v []int32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(x))
	}
}

// codecValues returns n float64s drawn from the values a wire carries and
// the ones it must not disturb: ±0, quiet and signalling NaNs with payloads,
// ±Inf, subnormals, the float32 range's edges, values that round when
// narrowed to float32 (ties to even among them), and ordinary numbers.
func codecValues(rng *rand.Rand, n int) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000000),     // the quiet NaN
		math.Float64frombits(0x7ff8_0000_dead_beef),  // quiet, with a payload
		math.Float64frombits(0xfff0_0000_0000_0001),  // signalling, negative
		math.Float64frombits(0x7ff4_0000_1234_5678),  // signalling, payload in float32's reach
		math.Float64frombits(1),                      // the smallest subnormal
		-math.Float64frombits(0x000f_ffff_ffff_ffff), // the largest subnormal
		math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32,
		math.MaxFloat32 * 1.0000001,             // past float32: narrows to +Inf
		math.SmallestNonzeroFloat32 / 3, 1e-300, // below float32's subnormals
		1 + 1.0/(1<<24),               // a tie between float32s: rounds to even (1)
		1 + 3.0/(1<<24),               // a tie: rounds to even (up)
		0.1, math.Pi, -1e30, 16777217, // inexact in float32
	}
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(3) {
		case 0:
			v[i] = specials[rng.Intn(len(specials))]
		case 1:
			v[i] = math.Float64frombits(rng.Uint64()) // any bit pattern
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
	}
	return v
}

// sentinel fills a buffer whose bytes outside a section must stay as they
// were.
func sentinel(n int) []byte {
	return bytes.Repeat([]byte{0xa5}, n)
}

// TestCodecMatchesLoops writes and reads every array kind at lengths 0–67
// and at section offsets 0–7 inside a larger buffer: the bytes written equal
// the per-element loop's, nothing outside the section moves, and what is
// read back equals, bit for bit, what the per-element decode gives.
func TestCodecMatchesLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 7; off++ {
			v := codecValues(rng, n)
			iv := make([]int32, n)
			for i := range iv {
				iv[i] = int32(rng.Uint32())
			}
			if n > 1 {
				iv[0], iv[1] = math.MinInt32, math.MaxInt32
			}
			for _, c := range []struct {
				name     string
				w        int
				put, ref func(dst []byte)
			}{
				{"f64", 8, func(d []byte) { PutF64s(d, v) }, func(d []byte) { refPutF64s(d, v) }},
				{"f32", 4, func(d []byte) { PutF32s(d, v) }, func(d []byte) { refPutF32s(d, v) }},
				{"i32", 4, func(d []byte) { PutI32s(d, iv) }, func(d []byte) { refPutI32s(d, iv) }},
			} {
				got, want := sentinel(off+c.w*n+9), sentinel(off+c.w*n+9)
				c.put(got[off:])
				c.ref(want[off:])
				if !bytes.Equal(got, want) {
					t.Fatalf("Put%s n=%d off=%d:\n got % x\nwant % x", c.name, n, off, got, want)
				}
			}

			// Reads: the same section decoded by the codec and by the loop.
			raw := sentinel(off + 8*n + 5)
			rng.Read(raw[off : off+8*n])
			f64, f32, i32 := make([]float64, n), make([]float64, n), make([]int32, n)
			GetF64s(f64, raw[off:])
			GetF32s(f32, raw[off:])
			GetI32s(i32, raw[off:])
			for i := 0; i < n; i++ {
				w64 := math.Float64frombits(binary.LittleEndian.Uint64(raw[off+8*i:]))
				w32 := float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[off+4*i:])))
				wi := int32(binary.LittleEndian.Uint32(raw[off+4*i:]))
				if math.Float64bits(f64[i]) != math.Float64bits(w64) ||
					math.Float64bits(f32[i]) != math.Float64bits(w32) || i32[i] != wi {
					t.Fatalf("n=%d off=%d word %d: got %x %x %d, want %x %x %d", n, off, i,
						math.Float64bits(f64[i]), math.Float64bits(f32[i]), i32[i],
						math.Float64bits(w64), math.Float64bits(w32), wi)
				}
			}

			// A written section reads back as itself (f64, i32) or as its
			// narrowed value (f32).
			sec := sentinel(off + 8*n)
			PutF64s(sec[off:], v)
			GetF64s(f64, sec[off:])
			PutF32s(sec[off:], v)
			GetF32s(f32, sec[off:])
			for i, x := range v {
				if math.Float64bits(f64[i]) != math.Float64bits(x) ||
					math.Float64bits(f32[i]) != math.Float64bits(float64(float32(x))) {
					t.Fatalf("n=%d off=%d value %x: round trips %x (f64), %x (f32)", n, off,
						math.Float64bits(x), math.Float64bits(f64[i]), math.Float64bits(f32[i]))
				}
			}

			// AppendF64s after off bytes, with and without room to spare.
			for _, spare := range []int{0, 8*n + 3} {
				prefix := append(make([]byte, 0, off+spare), sentinel(off)...)
				got := AppendF64s(prefix, v)
				want := sentinel(off + 8*n)
				refPutF64s(want[off:], v)
				if !bytes.Equal(got, want) {
					t.Fatalf("AppendF64s n=%d off=%d spare=%d:\n got % x\nwant % x", n, off, spare, got, want)
				}
			}

			// AddF64s: the word-by-word sum, in place, nothing past acc moved.
			u := codecValues(rng, n)
			acc, in := sentinel(off+8*n+8), sentinel(off+8*n+8)
			refPutF64s(acc[off:], v)
			refPutF64s(in[off:], u)
			// Where both words are NaNs, which payload the sum carries is
			// the compiler's choice of ADDSD operand order, in the loop this
			// replaced as here: such a word need only be a NaN.
			want := sentinel(off + 8*n + 8)
			refPutF64s(want[off:], v)
			refAddF64s(want[off:off+8*n], in[off:])
			AddF64s(acc[off:off+8*n], in[off:])
			for i := range v {
				if math.IsNaN(v[i]) && math.IsNaN(u[i]) {
					if got := math.Float64frombits(binary.LittleEndian.Uint64(acc[off+8*i:])); !math.IsNaN(got) {
						t.Fatalf("AddF64s n=%d off=%d word %d: NaN + NaN = %v", n, off, i, got)
					}
					copy(acc[off+8*i:off+8*i+8], want[off+8*i:])
				}
			}
			if !bytes.Equal(acc, want) {
				t.Fatalf("AddF64s n=%d off=%d:\n got % x\nwant % x", n, off, acc, want)
			}
		}
	}
}

// TestCodecShortStoragePanics: a byte side shorter than the words asked for
// panics before a word is written, even when its spare capacity would hold
// them.
func TestCodecShortStoragePanics(t *testing.T) {
	v := []float64{1, 2, 3}
	for name, put := range map[string]func([]byte){
		"PutF64s": func(d []byte) { PutF64s(d[:8*len(v)-1], v) },
		"PutF32s": func(d []byte) { PutF32s(d[:4*len(v)-1], v) },
		"PutI32s": func(d []byte) { PutI32s(d[:4*len(v)-1], []int32{1, 2, 3}) },
		"GetF64s": func(d []byte) { GetF64s(make([]float64, len(v)), d[:8*len(v)-1]) },
		"GetF32s": func(d []byte) { GetF32s(make([]float64, len(v)), d[:4*len(v)-1]) },
		"GetI32s": func(d []byte) { GetI32s(make([]int32, len(v)), d[:4*len(v)-1]) },
		"AddF64s": func(d []byte) { AddF64s(make([]byte, 8*len(v)), d[:8*len(v)-1]) },
	} {
		buf := sentinel(8 * len(v))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s into short storage did not panic", name)
				}
			}()
			put(buf)
		}()
		if !bytes.Equal(buf, sentinel(8*len(v))) {
			t.Errorf("%s wrote % x before panicking", name, buf)
		}
	}
}

// BenchmarkArrayCodec prices each codec loop on the section a casvm-sparse
// center allreduce moves: 8 centers × 2,048 features.
func BenchmarkArrayCodec(b *testing.B) {
	const n = 8 * 2048
	v, raw, in := make([]float64, n), make([]byte, 8*n), make([]byte, 8*n)
	for _, c := range []struct {
		name  string
		bytes int
		run   func()
	}{
		{"PutF64s", 8 * n, func() { PutF64s(raw, v) }},
		{"GetF64s", 8 * n, func() { GetF64s(v, raw) }},
		{"AddF64s", 8 * n, func() { AddF64s(raw, in) }},
		{"PutF32s", 4 * n, func() { PutF32s(raw, v) }},
		{"GetF32s", 4 * n, func() { GetF32s(v, raw) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(c.bytes))
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}
